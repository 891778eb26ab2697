"""Regenerate ``expected/<workload>.json``: the statistics every point must repeat.

Runs each workload's points at every program seed, at full and at smoke
size, through ``run_sweep`` (worker processes, no cache, no telemetry),
and stores each point's simulated-statistics digest.  The
``point_observed`` figures are therefore telemetry-free, so the
benchmark also checks that attaching telemetry changes nothing.  Run
this only when a change is meant to alter simulated behaviour::

    python3 perfbench/refresh_expected.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from repro.experiments.sweep import run_sweep  # noqa: E402


def refresh(workload) -> dict:
    doc = {}
    for size, smoke in (("full", False), ("smoke", True)):
        doc[size] = {}
        for seed in workloads.PROGRAM_SEEDS:
            outcome = run_sweep(
                workloads.specs_for(workload, seed),
                workloads.settings_for(workload, seed, smoke),
                processes=2,
                failure_mode="raise",
            )
            doc[size][str(seed)] = {
                workloads.result_label(point): workloads.digest(point)
                for points in outcome.series.values()
                for _, point in points
            }
            print(f"{workload.name} {size} seed {seed}: "
                  f"{len(doc[size][str(seed)])} points", flush=True)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.WORKLOADS),
        help="workload to refresh (repeatable; default all)",
    )
    args = parser.parse_args(argv)
    os.makedirs(workloads.EXPECTED_DIR, exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        doc = refresh(workloads.WORKLOADS[name])
        path = os.path.join(workloads.EXPECTED_DIR, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
