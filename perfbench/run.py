"""Benchmark of the MIRA reproduction's simulator and sweep engine.

Run from the repository root::

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: the workload's cold pass
(``sweep_s``), warm cached re-runs (``resume_s``), simulated cycles per
host CPU second, set-up time, peak memory and the number of points.
Host times are normalised by the host's speed (``bench.host_scale``;
``README.md`` gives the reason), and the table also shows them raw.
``--trace 1`` instead runs one untraced and one traced pass and reports
the per-layer split (see ``README.md`` for which layer metric should
move which end-to-end metric).  Every point's simulated statistics are
checked against the stored ones for the seed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give a provenance block
and a table of the same figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def calibrate(rounds: int = 3, n: int = 500_000) -> float:
    """Operations per second of the host-speed loop, best of *rounds*:
    context for reading figures taken on another machine."""
    from bench import speed_loop_s

    return max(n / speed_loop_s(n) for _ in range(rounds))


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, *args], capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, program_seed: int) -> Dict[str, object]:
    from importlib import metadata

    commit = dirty = None
    top = _git("rev-parse", "--show-toplevel")
    if top is not None and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "commit": commit,
        "dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": program_seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "calibration_ops_per_s": calibrate(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _table(metrics: Dict[str, float], units: Dict[str, str]) -> List[str]:
    return [
        f"  {name:<30} {metrics[name]:>16.6g} {units[name]}"
        for name in units
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny cycle budgets and one set-up probe (for tests)",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench as bench_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]

    work_root = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(work_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        bench = bench_mod.Bench(workload, args.seed, args.smoke, scratch)
        raw: Dict[str, float] = {}
        if args.trace:
            metrics = bench_mod.traced_run(bench)
            units = bench_mod.PER_LAYER_UNITS
        else:
            metrics, raw = bench_mod.timed_run(bench, args.seconds)
            units = bench_mod.END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # After the measurement: its git child processes would otherwise
    # count towards peak_rss_mb.
    print("provenance " + json.dumps(
        provenance(args, workloads.program_seed(args.seed)), sort_keys=True
    ))
    for point in workload.points:
        knee = workloads.knee_latency(point.arch, point.kind)
        print(f"  point {point.label}: {point.basis}, latency knee {knee:.2f}")
    tally = bench.tally
    print(f"workload {workload.name}: {tally.attempted} point results checked, "
          f"{tally.failed} failed")
    for label, reason in sorted(tally.failures.items()):
        print(f"  FAILED {label}: {reason}")
    for line in _table(metrics, units):
        print(line)
    print(f"  {'failed_point_frac':<30} {tally.failed_point_frac:>16.6g} ratio")
    for name, value in raw.items():
        print(f"  {'raw ' + name:<30} {value:>16.6g} (median, not normalised)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
