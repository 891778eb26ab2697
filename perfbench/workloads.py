"""The benchmark's workloads, their operating points and per-point checks.

Every point is a :class:`~repro.experiments.store.PointSpec`; the
benchmark seed reaches the program only as the spec's and the
settings' ``seed``.  Rates derived from saturation are fractions of the
rates recorded in ``operating_points.json`` (written by
``calibrate_operating_points.py``).  Each point's simulated statistics
must equal the ones stored in ``expected/<workload>.json`` for its seed
(written by ``refresh_expected.py``), and no point may be saturated or
sit above the latency knee.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.core.arch import Architecture, make_architecture
from repro.experiments.config import ExperimentSettings
from repro.experiments.store import PointSpec

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

with open(os.path.join(HERE, "operating_points.json"), encoding="utf-8") as _f:
    OPERATING_POINTS = json.load(_f)

#: Program seeds with stored statistics; ``--seed n`` selects
#: ``PROGRAM_SEEDS[n % len(PROGRAM_SEEDS)]``.
PROGRAM_SEEDS = tuple(range(1, 11))

#: Cycle budgets of ``--smoke`` runs (tests only; never timed).
SMOKE_CYCLES = (50, 300, 4000)


def program_seed(seed: int) -> int:
    return PROGRAM_SEEDS[seed % len(PROGRAM_SEEDS)]


@dataclasses.dataclass(frozen=True)
class PointDef:
    """One point of a workload, before the seed is applied."""

    fabric: str  #: Architecture member name
    kind: str  #: "uniform" or "nuca"
    rate: float
    #: How the rate was chosen (for the report and the README).
    basis: str

    @property
    def arch(self) -> str:
        return Architecture[self.fabric].value

    @property
    def label(self) -> str:
        return point_label(self.arch, self.kind, self.rate)


def point_label(arch: str, kind: str, rate: float) -> str:
    """``"<arch> UR@<rate>"`` / ``"<arch> NUCA@<rate>"``, as the runner labels points."""
    prefix = "UR" if kind == "uniform" else "NUCA"
    return f"{arch} {prefix}@{rate:g}"


def saturation_rate(fabric: str) -> float:
    arch = Architecture[fabric].value
    return OPERATING_POINTS["fabrics"][arch]["saturation_rate"]


def at_saturation_share(fabric: str, fraction: float) -> PointDef:
    sat = saturation_rate(fabric)
    return PointDef(
        fabric, "uniform", round(fraction * sat, 4),
        f"{fraction:.2f} x saturation {sat:.4g}",
    )


def fixed(fabric: str, kind: str, rate: float) -> PointDef:
    if kind == "nuca":
        return PointDef(fabric, kind, rate, "fixed request rate")
    sat = saturation_rate(fabric)
    return PointDef(
        fabric, kind, rate, f"fixed rate, {rate / sat:.2f} x saturation {sat:.4g}"
    )


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    points: Tuple[PointDef, ...]
    #: True: points run one after another in this process; False: the
    #: cold pass goes through ``run_sweep`` with worker processes.
    in_process: bool
    #: Warm-up and measured cycles per point; ``None`` keeps the quick
    #: settings.
    warmup_cycles: Optional[int] = None
    measure_cycles: Optional[int] = None
    #: Attach ``point_telemetry_config`` (metrics, sampled trace and
    #: stall attribution) to every point.
    observed: bool = False


SWEEP_FABRICS = (
    "BASELINE_2D", "BASELINE_3D", "MIRA_3DM_NC", "MIRA_3DM",
    "MIRA_3DM_E_NC", "MIRA_3DM_E", "RING", "CHIPLET",
)
SWEEP_FRACTIONS = (0.3, 0.7)

#: 3DM uniform at 0.30 flits/node/cycle: ~70% of its saturation rate.
_LOADED_3DM = fixed("MIRA_3DM", "uniform", 0.30)

WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            "sweep_grid",
            tuple(
                at_saturation_share(fabric, fraction)
                for fabric in SWEEP_FABRICS
                for fraction in SWEEP_FRACTIONS
            ),
            in_process=False,
            # A quarter of the quick budget: a cold pass takes seconds,
            # not 10-15 s, so a run holds several of them.
            warmup_cycles=200,
            measure_cycles=600,
        ),
        Workload(
            "point_light",
            (
                fixed("MIRA_3DM", "uniform", 0.05),
                fixed("MIRA_3DM", "nuca", 0.05),
            ),
            in_process=True,
            measure_cycles=20000,
        ),
        Workload(
            "point_loaded",
            (
                _LOADED_3DM,
                fixed("MIRA_3DM", "nuca", 0.15),
                at_saturation_share("RING", 0.9),
            ),
            in_process=True,
            measure_cycles=4000,
        ),
        Workload(
            "point_observed",
            (_LOADED_3DM,),
            in_process=True,
            measure_cycles=4000,
            observed=True,
        ),
    )
}


def settings_for(
    workload: Workload, seed: int, smoke: bool = False
) -> ExperimentSettings:
    """Cycle budgets for *workload* at program seed *seed*."""
    base = ExperimentSettings.quick()
    if smoke:
        warmup, measure, drain = SMOKE_CYCLES
    else:
        warmup, measure, drain = (
            workload.warmup_cycles or base.warmup_cycles,
            workload.measure_cycles or base.measure_cycles,
            base.drain_cycles,
        )
    return dataclasses.replace(
        base,
        warmup_cycles=warmup,
        measure_cycles=measure,
        drain_cycles=drain,
        seed=seed,
    )


def specs_for(workload: Workload, seed: int) -> List[PointSpec]:
    """The workload's points at program seed *seed*."""
    return [
        PointSpec(
            config=make_architecture(Architecture[p.fabric]),
            kind=p.kind,
            rate=p.rate,
            seed=seed,
        )
        for p in workload.points
    ]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

_SIM_FIELDS = (
    "cycles", "avg_latency", "avg_hops", "packets_measured",
    "packets_delivered", "flits_delivered", "throughput",
    "accepted_throughput", "saturated", "latency_p50", "latency_p95",
    "latency_p99", "packets_dropped", "flits_dropped",
)


def digest(point) -> Dict[str, object]:
    """The simulated statistics of one PointResult that must repeat exactly."""
    sim = point.sim
    out: Dict[str, object] = {name: getattr(sim, name) for name in _SIM_FIELDS}
    for f in dataclasses.fields(sim.events):
        value = getattr(sim.events, f.name)
        if isinstance(value, (int, float)):
            out["events." + f.name] = value
    out["power_w"] = point.power.total_w
    out["layer_power_w"] = point.layer_power.total_w
    return out


def result_label(point) -> str:
    return f"{point.arch} {point.label}"


def knee_latency(arch: str, kind: str) -> float:
    """Latency above which a point counts as past the saturation knee."""
    zero_load = OPERATING_POINTS["fabrics"][arch]["zero_load_latency"][kind]
    return OPERATING_POINTS["knee_factor"] * zero_load


def check_point(
    got: Dict[str, object],
    expected: Optional[Dict[str, object]],
    knee: float,
) -> Optional[str]:
    """Why a point's statistics are not acceptable, or ``None``."""
    if got["saturated"]:
        return "saturated: the drain cap was hit"
    if got["avg_latency"] > knee:
        return f"latency {got['avg_latency']:.2f} above the knee {knee:.2f}"
    if expected is None:
        return "no stored statistics for this point and seed"
    if got != expected:
        keys = sorted(
            k for k in set(got) | set(expected) if got.get(k) != expected.get(k)
        )
        return "statistics differ from the stored ones: " + ", ".join(keys)
    return None


def load_expected(workload: Workload, seed: int, smoke: bool) -> Dict[str, dict]:
    """Stored digests by point label for this workload, program seed and size."""
    path = os.path.join(EXPECTED_DIR, workload.name + ".json")
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return {}
    return doc["smoke" if smoke else "full"].get(str(seed), {})


class Tally:
    """Checked point results against the workload's distinct points."""

    def __init__(self, labels: List[str]) -> None:
        self.labels = list(labels)
        self.attempted = 0
        self.failed = 0
        #: First failure reason per failing point label.
        self.failures: Dict[str, str] = {}

    def record(self, label: str, reason: Optional[str]) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.setdefault(label, reason)

    @property
    def points_run(self) -> int:
        return len(self.labels)

    @property
    def failed_point_frac(self) -> float:
        return len(self.failures) / len(self.labels)
