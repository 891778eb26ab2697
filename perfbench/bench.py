"""Passes, checks and metrics of one benchmark run (see ``run.py``).

A :class:`Bench` holds one workload at one seed.  A cold pass runs every
point from scratch; a warm pass re-runs the workload with
``resume=True`` so every point is served from the result cache.  Every
point result of every pass is checked against the stored statistics.
:func:`timed_run` gives the end-to-end metrics with tracing off;
:func:`traced_run` gives the per-layer split.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List, Tuple

import workloads
from repro.experiments.runner import point_telemetry_config, run_point_spec
from repro.experiments.store import ResultStore, point_key
from repro.experiments.sweep import run_sweep
from tracing import Tracer, install_layers, merge_totals, network_totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Worker processes of the swept cold and warm passes.
PROCESSES = 2
#: A sweep point that runs longer than this counts as failed.
POINT_TIMEOUT_S = 120.0
#: Fresh-interpreter set-up probes per run at the least; ``setup_s`` is
#: their median.
SETUP_PROBES = 5
#: After each cold pass, warm passes run for this share of its wall
#: time, and at least MIN_WARM_PASSES of them.
WARM_SHARE = 0.25
MIN_WARM_PASSES = 10
#: Host times are normalised by the host's speed (see host_scale),
#: taken around every set-up probe, in-process point and swept cold pass
#: and before every WARM_GROUP warm passes.
WARM_GROUP = 5
SPEED_LOOP_N = 20_000
REFERENCE_LOOP_S = 1.0e-3
#: The speed taken around a swept pass runs the loop in PROCESSES
#: workers at once, each SWEPT_LOOP_ROUNDS times SWEPT_LOOP_N iterations.
SWEPT_LOOP_N = 25 * SPEED_LOOP_N
SWEPT_LOOP_ROUNDS = 3
#: When the host slows, the loop's time grows more than a cold pass's:
#: regressing one's log on the other's gave slopes of 0.23-0.94 by
#: workload on the host this was tuned on.  So cold passes are scaled by
#: this power of the speed ratio.  Warm passes and set-up probes are
#: scaled fully: on warm passes this power left twice the spread.
COLD_SCALE_EXPONENT = 0.5

END_TO_END_UNITS = {
    "sweep_s": "s",
    "resume_s": "s",
    "sim_cycles_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_run": "count",
}


PER_LAYER_UNITS = {
    "core.build_network_s": "s",
    "traffic.packets_for_cycle_s": "s",
    "traffic.on_delivered_s": "s",
    "traffic.packets": "count",
    "noc.deliver_s": "s",
    "noc.inject_s": "s",
    "noc.route_s": "s",
    "noc.active_router_ratio": "ratio",
    "noc.router_steps": "count",
    "noc.router_step_self_s": "s",
    "noc.output_port_calls": "count",
    "noc.output_port_s": "s",
    "noc.allowed_vcs_calls": "count",
    "noc.allowed_vcs_s": "s",
    "noc.va_general_calls": "count",
    "noc.va_general_s": "s",
    "noc.sa_general_calls": "count",
    "noc.sa_general_s": "s",
    "noc.va_general_share": "ratio",
    "noc.sa_general_share": "ratio",
    "noc.va_allocations": "count",
    "noc.sa_allocations": "count",
    "noc.flit_hops": "count",
    "power.report_s": "s",
    "store.point_key_s": "s",
    "store.put_s": "s",
    "store.put_bytes": "bytes",
    "store.get_s": "s",
    "journal.append_s": "s",
    "sweep.point_run_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "telemetry.on_cycle_s": "s",
    "telemetry.attribution_s": "s",
    "telemetry.finish_s": "s",
    "bench.tracing_overhead": "ratio",
}


class PassResult:
    """Timing and checked outcome of one pass over a workload's points."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.cycles = 0
        #: Digest per point label, for points that produced a result.
        self.digests: Dict[str, dict] = {}
        #: Failure reason per point label.
        self.errors: Dict[str, str] = {}
        #: Seconds inside ``run_point_spec`` (in-process passes).
        self.point_run_s = 0.0
        #: Mean host_scale() over the pass: around every point of an
        #: in-process pass, before and after a swept one.
        self.scale = 1.0
        #: The same for CPU seconds.  Only a swept pass differs: there
        #: other processes on the host stretch the wall time of the
        #: workers, and the loop's, but not their CPU time.
        self.cpu_scale = 1.0

    @property
    def cycles_per_cpu_s(self) -> float:
        return self.cycles / self.cpu_s


def speed_loop_s(n: int = SPEED_LOOP_N) -> float:
    """Wall seconds of a fixed pure-Python loop shaped like the
    simulator's hot path (list indexing, deque churn, integer
    arithmetic): the host's current speed."""
    fifo = deque(range(64))
    arr = list(range(256))
    acc = 0
    start = time.perf_counter()
    for i in range(n):
        j = i & 255
        acc += arr[j]
        if not j:
            fifo.append(fifo.popleft())
    return time.perf_counter() - start


def host_scale() -> float:
    """REFERENCE_LOOP_S over the speed loop's current time (median of 5).

    Multiplying a host time by this expresses it in seconds of a host on
    which the loop takes REFERENCE_LOOP_S.
    """
    return REFERENCE_LOOP_S / statistics.median(
        speed_loop_s() for _ in range(5)
    )


def _loop_worker(conn) -> None:
    walls, cpus = [], []
    for _ in range(SWEPT_LOOP_ROUNDS):
        cpu0 = time.process_time()
        walls.append(speed_loop_s(SWEPT_LOOP_N))
        cpus.append(time.process_time() - cpu0)
    conn.send((statistics.median(walls), statistics.median(cpus)))
    conn.close()


def swept_host_scale() -> Tuple[float, float]:
    """host_scale() as a swept pass sees the host, for wall and for CPU
    seconds: the loop runs in PROCESSES forked workers at once while
    this process waits, as it waits on the sweep's workers.

    Each worker's loop spans tens of milliseconds, many scheduler
    slices, so CPU time taken by other processes shows in its wall time
    as it does in the pass's.
    """
    ctx = multiprocessing.get_context("fork")
    workers = []
    for _ in range(PROCESSES):
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(target=_loop_worker, args=(send,))
        process.start()
        send.close()
        workers.append((process, recv))
    times = []
    for process, recv in workers:
        times.append(recv.recv())
        recv.close()
        process.join()
    reference_s = REFERENCE_LOOP_S * SWEPT_LOOP_N / SPEED_LOOP_N
    wall_s, cpu_s = (statistics.fmean(column) for column in zip(*times))
    return reference_s / wall_s, reference_s / cpu_s


def _cpu_with_children() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Bench:
    """One workload at one seed, with its scratch directory."""

    def __init__(self, workload, seed: int, smoke: bool, scratch: str) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        program_seed = workloads.program_seed(seed)
        self.settings = workloads.settings_for(workload, program_seed, smoke)
        self.specs = workloads.specs_for(workload, program_seed)
        self.labels = [p.label for p in workload.points]
        self.expected = workloads.load_expected(workload, program_seed, smoke)
        self.tally = workloads.Tally(self.labels)
        self.cache_dir = os.path.join(scratch, "cache")
        self.journal_path = os.path.join(scratch, "journal.jsonl")
        self._passes = 0

    # -- checks ---------------------------------------------------------

    def _knee(self, label: str) -> float:
        point = self.workload.points[self.labels.index(label)]
        return workloads.knee_latency(point.arch, point.kind)

    def check(self, result: PassResult) -> None:
        """Tally every point of *result* against the stored statistics."""
        for label in self.labels:
            if label in result.errors:
                reason = result.errors[label]
            elif label not in result.digests:
                reason = "no result for this point"
            else:
                reason = workloads.check_point(
                    result.digests[label],
                    self.expected.get(label),
                    self._knee(label),
                )
            self.tally.record(label, reason)

    def _collect(self, result: PassResult, point) -> None:
        label = workloads.result_label(point)
        result.digests[label] = workloads.digest(point)
        result.cycles += point.sim.cycles

    # -- passes ---------------------------------------------------------

    def cold_pass(self, worker_fn=None) -> PassResult:
        """Run every point by simulating it; the swept pass starts from an
        empty cache and a fresh journal."""
        self._passes += 1
        if self.workload.in_process:
            return self._cold_in_process()
        return self._cold_swept(worker_fn)

    def _cold_swept(self, worker_fn) -> PassResult:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        # Workers fork from this process: start each pass from the same
        # collected heap so their memory does not depend on earlier passes.
        gc.collect()
        result = PassResult()
        before = swept_host_scale()
        cpu0, wall0 = _cpu_with_children(), time.perf_counter()
        outcome = run_sweep(
            self.specs, self.settings,
            processes=PROCESSES,
            cache_dir=self.cache_dir,
            journal_path=self.journal_path,
            point_timeout=POINT_TIMEOUT_S,
            worker_fn=worker_fn,
        )
        result.wall_s = time.perf_counter() - wall0
        result.cpu_s = _cpu_with_children() - cpu0
        after = swept_host_scale()
        result.scale = (before[0] + after[0]) / 2
        result.cpu_scale = (before[1] + after[1]) / 2
        for points in outcome.series.values():
            for _, point in points:
                self._collect(result, point)
        for failure in outcome.failures:
            label = workloads.point_label(failure.arch, failure.kind, failure.rate)
            result.errors[label] = failure.describe()
        return result

    def _cold_in_process(self) -> PassResult:
        """Run the points one after another in this process.

        A full collection before each point, outside the timed span,
        frees the previous point's network, so every point starts from
        the same heap and the peak memory is one point's.
        """
        store = ResultStore(self.cache_dir)
        result = PassResult()
        scales = []
        for spec, label in zip(self.specs, self.labels):
            telemetry = None
            if self.workload.observed:
                telemetry = point_telemetry_config(
                    os.path.join(self.scratch, f"telemetry-{self._passes}"),
                    label.replace(" ", "_"),
                    trace={},
                    attribution=True,
                )
            gc.collect()
            scales.append(host_scale())
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                point = run_point_spec(spec, self.settings, telemetry=telemetry)
                result.point_run_s += time.perf_counter() - wall0
                store.put(point_key(spec, self.settings), point)
            except Exception as exc:  # noqa: BLE001 - a failed point is data
                result.errors[label] = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                result.wall_s += time.perf_counter() - wall0
                result.cpu_s += time.process_time() - cpu0
            self._collect(result, point)
        scales.append(host_scale())
        result.scale = result.cpu_scale = statistics.fmean(scales)
        return result

    def warm_pass(self) -> PassResult:
        """Re-run the workload with ``resume=True``: every point is cached.

        No journal: its fsync'd appends are timed in the swept cold
        pass, and here their disk latency would swamp the cache reads.
        """
        result = PassResult()
        wall0 = time.perf_counter()
        outcome = run_sweep(
            self.specs, self.settings,
            processes=PROCESSES,
            cache_dir=self.cache_dir,
            resume=True,
            point_timeout=POINT_TIMEOUT_S,
        )
        result.wall_s = time.perf_counter() - wall0
        for points in outcome.series.values():
            for _, point in points:
                self._collect(result, point)
        for failure in outcome.failures:
            label = workloads.point_label(failure.arch, failure.kind, failure.rate)
            result.errors[label] = failure.describe()
        if outcome.stats.executed:
            for label in self.labels:
                result.errors.setdefault(
                    label, "warm pass simulated instead of reading the cache"
                )
        return result

    # -- set-up ---------------------------------------------------------

    def setup_probe(self) -> float:
        """Seconds from a fresh interpreter's first line to the first cycle."""
        cmd = [
            sys.executable, os.path.join(HERE, "setup_probe.py"),
            "--workload", self.workload.name, "--seed", str(self.seed),
        ]
        if self.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_run(bench: Bench, seconds: float):
    """The end-to-end metrics, tracing off, and their raw medians.

    A round is one cold pass, a batch of warm passes and one set-up
    probe.  Rounds repeat until less than half a round of *seconds* is
    left, so every figure samples the whole run; set-up probes are then
    topped up to SETUP_PROBES.  The host's speed swings up to 2x between
    runs and drifts 20% between sets of runs, so every host time is
    normalised by the host's speed taken next to it (see
    PassResult.scale); the raw medians come back beside the metrics.
    Only timings are kept, so memory does not grow with the number of
    passes.
    """
    samples: Dict[str, List[float]] = {
        name: [] for name in ("sweep_s", "resume_s", "sim_cycles_per_cpu_s",
                              "setup_s", "host_scale")
    }
    raw: Dict[str, List[float]] = {name: [] for name in samples}

    def add(name: str, value: float, scale: float) -> None:
        raw[name].append(value)
        samples[name].append(value * scale)

    def probe() -> None:
        before, value, after = host_scale(), bench.setup_probe(), host_scale()
        add("setup_s", value, (before + after) / 2)

    start = time.perf_counter()
    rounds = 0
    while True:
        cold = bench.cold_pass()
        bench.check(cold)
        add("sweep_s", cold.wall_s, cold.scale ** COLD_SCALE_EXPONENT)
        add("sim_cycles_per_cpu_s", cold.cycles_per_cpu_s,
            cold.cpu_scale ** -COLD_SCALE_EXPONENT)
        batch_end = time.perf_counter() + WARM_SHARE * cold.wall_s
        batch = 0
        while batch < MIN_WARM_PASSES or time.perf_counter() < batch_end:
            if batch % WARM_GROUP == 0:
                scale = host_scale()
                add("host_scale", scale, 1.0)
            warm = bench.warm_pass()
            bench.check(warm)
            add("resume_s", warm.wall_s, scale)
            batch += 1
        probe()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            break
    while len(samples["setup_s"]) < (1 if bench.smoke else SETUP_PROBES):
        probe()
    metrics = {name: statistics.median(samples[name]) for name in samples}
    del metrics["host_scale"]
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics["points_run"] = bench.tally.points_run
    return metrics, {name: statistics.median(raw[name]) for name in raw}


class TimingWorker:
    """``run_sweep`` worker that traces its point and files the totals.

    Runs in the forked worker process, where the parent's wrappers are
    already installed; writes ``<out_dir>/<point key>.json`` for the
    parent.
    """

    def __init__(self, tracer, out_dir: str) -> None:
        self.tracer = tracer
        self.out_dir = out_dir

    def __call__(self, spec, settings):
        self.tracer.reset()
        start = time.perf_counter()
        point = run_point_spec(spec, settings)
        record = {
            "point_run_s": time.perf_counter() - start,
            "spans": self.tracer.totals(),
            "network": network_totals(self.tracer.networks),
        }
        path = os.path.join(self.out_dir, point_key(spec, settings) + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return point


def traced_run(bench: Bench) -> Dict[str, float]:
    """The per-layer metrics: one untraced and one traced pass."""
    untraced = bench.cold_pass()
    bench.check(untraced)
    tracer = Tracer()
    worker_dir = os.path.join(bench.scratch, "worker-spans")
    os.makedirs(worker_dir)
    install_layers(tracer)
    try:
        worker = None if bench.workload.in_process else TimingWorker(
            tracer, worker_dir
        )
        traced = bench.cold_pass(worker_fn=worker)
        bench.check(traced)
        warm = bench.warm_pass()
        bench.check(warm)
        spans = tracer.totals()
        net = network_totals(tracer.networks)
    finally:
        broken = tracer.restore()
    if broken:
        for label in bench.labels:
            bench.tally.record(label, "not restored: " + ", ".join(broken))
    # The traced pass must not perturb the model.
    for label in bench.labels:
        same = traced.digests.get(label) == untraced.digests.get(label)
        bench.tally.record(
            label, None if same else "traced statistics differ from untraced"
        )

    point_run_s = traced.point_run_s
    for name in sorted(os.listdir(worker_dir)):
        with open(os.path.join(worker_dir, name), encoding="utf-8") as handle:
            record = json.load(handle)
        point_run_s += record["point_run_s"]
        merge_totals(spans, record["spans"])
        for key, value in record["network"].items():
            net[key] += value

    seconds, calls = spans["seconds"], spans["calls"]
    self_s, units = spans["self_seconds"], spans["units"]
    processes = 1 if bench.workload.in_process else PROCESSES
    if bench.workload.in_process:
        overhead = traced.cpu_s / untraced.cpu_s
    else:
        overhead = traced.wall_s / untraced.wall_s
    return {
        "core.build_network_s": seconds.get("core.build_network", 0.0),
        "traffic.packets_for_cycle_s": seconds.get("traffic.packets_for_cycle", 0.0),
        "traffic.on_delivered_s": seconds.get("traffic.on_delivered", 0.0),
        "traffic.packets": units.get("traffic.packets_for_cycle", 0)
        + units.get("traffic.on_delivered", 0),
        "noc.deliver_s": net["deliver_s"],
        "noc.inject_s": net["inject_s"],
        "noc.route_s": net["route_s"],
        "noc.active_router_ratio": net["routers_stepped"] / net["router_cycles"],
        "noc.router_steps": net["routers_stepped"],
        "noc.router_step_self_s": self_s.get("noc.router_step", 0.0),
        "noc.output_port_calls": calls.get("noc.output_port", 0),
        "noc.output_port_s": seconds.get("noc.output_port", 0.0),
        "noc.allowed_vcs_calls": calls.get("noc.allowed_vcs", 0),
        "noc.allowed_vcs_s": seconds.get("noc.allowed_vcs", 0.0),
        "noc.va_general_calls": calls.get("noc.va_general", 0),
        "noc.va_general_s": seconds.get("noc.va_general", 0.0),
        "noc.sa_general_calls": calls.get("noc.sa_general", 0),
        "noc.sa_general_s": seconds.get("noc.sa_general", 0.0),
        "noc.va_general_share": calls.get("noc.va_general", 0)
        / net["va_allocations"],
        "noc.sa_general_share": calls.get("noc.sa_general", 0)
        / net["sa_allocations"],
        "noc.va_allocations": net["va_allocations"],
        "noc.sa_allocations": net["sa_allocations"],
        "noc.flit_hops": net["flit_hops"],
        "power.report_s": seconds.get("power.report", 0.0),
        "store.point_key_s": seconds.get("store.point_key", 0.0),
        "store.put_s": seconds.get("store.put", 0.0),
        "store.put_bytes": units.get("store.put", 0),
        "store.get_s": seconds.get("store.get", 0.0),
        "journal.append_s": seconds.get("journal.append", 0.0),
        "sweep.point_run_s": point_run_s,
        "sweep.parallel_efficiency": point_run_s / (processes * traced.wall_s),
        "telemetry.on_cycle_s": net["telemetry_s"],
        "telemetry.attribution_s": net["attribution_s"],
        "telemetry.finish_s": net["finish_s"],
        "bench.tracing_overhead": overhead,
    }
