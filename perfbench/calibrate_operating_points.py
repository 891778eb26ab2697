"""Find each benchmark fabric's saturation rate and zero-load latencies.

Runs :func:`repro.analysis.find_saturation_rate` (quick settings, seed 1,
its default bisection over 0.02..1.0 with tolerance 0.02) for every
fabric the workloads use, plus one low-load NUCA point per NUCA fabric
for that traffic's zero-load latency, and writes
``perfbench/operating_points.json``.  The workloads read their rates
from that file; re-run this only when the model's saturation behaviour
is meant to change::

    python3 perfbench/calibrate_operating_points.py
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing import get_context

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from repro.analysis import (  # noqa: E402
    SATURATION_LATENCY_FACTOR,
    find_saturation_rate,
)
from repro.core.arch import Architecture, make_architecture  # noqa: E402
from repro.experiments.config import ExperimentSettings  # noqa: E402
from repro.experiments.runner import run_nuca_point  # noqa: E402

#: Fabrics the workloads run, by Architecture member name.
FABRICS = (
    "BASELINE_2D", "BASELINE_3D", "MIRA_3DM_NC", "MIRA_3DM",
    "MIRA_3DM_E_NC", "MIRA_3DM_E", "RING", "CHIPLET",
)
#: Fabrics that also carry NUCA points.
NUCA_FABRICS = ("MIRA_3DM",)
NUCA_ZERO_LOAD_RATE = 0.02


def _calibrate(member: str) -> dict:
    config = make_architecture(Architecture[member])
    settings = ExperimentSettings.quick()
    sat = find_saturation_rate(config, settings)
    entry = {
        "arch": config.name,
        "saturation_rate": sat.saturation_rate,
        "zero_load_latency": {"uniform": sat.zero_load_latency},
        "probes": [list(p) for p in sat.probes],
    }
    if member in NUCA_FABRICS:
        point = run_nuca_point(config, NUCA_ZERO_LOAD_RATE, settings)
        entry["zero_load_latency"]["nuca"] = point.avg_latency
    return entry


def main() -> int:
    with get_context("fork").Pool(2) as pool:
        entries = pool.map(_calibrate, FABRICS)
    settings = ExperimentSettings.quick()
    doc = {
        "how": (
            "repro.analysis.find_saturation_rate(config, "
            "ExperimentSettings.quick()) with its defaults (low=0.02, "
            "high=1.0, tolerance=0.02, settings seed 1); a point counts as "
            "saturated past SATURATION_LATENCY_FACTOR x the zero-load "
            "latency or when the drain cap is hit.  NUCA zero-load latency "
            f"is run_nuca_point at request rate {NUCA_ZERO_LOAD_RATE}."
        ),
        "settings": {
            "warmup_cycles": settings.warmup_cycles,
            "measure_cycles": settings.measure_cycles,
            "drain_cycles": settings.drain_cycles,
            "seed": settings.seed,
        },
        "knee_factor": SATURATION_LATENCY_FACTOR,
        "fabrics": {e["arch"]: e for e in entries},
    }
    path = os.path.join(HERE, "operating_points.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for e in entries:
        print(f"{e['arch']:<10} saturation {e['saturation_rate']:.4f} "
              f"zero-load {e['zero_load_latency']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
