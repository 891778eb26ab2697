"""The benchmark's own tests: checks, tracing hygiene and a smoke run.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import tracing
import workloads
from bench import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    Bench,
    PassResult,
    swept_host_scale,
)

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")


def _bench(name, tmp_path, seed=1):
    return Bench(workloads.WORKLOADS[name], seed, False, str(tmp_path))


def _clean_pass(bench):
    result = PassResult()
    result.digests = copy.deepcopy(bench.expected)
    return result


def test_clean_stored_pass_passes(tmp_path):
    bench = _bench("point_loaded", tmp_path)
    assert set(bench.expected) == set(bench.labels)
    bench.check(_clean_pass(bench))
    assert bench.tally.failed == 0
    assert bench.tally.failed_point_frac == 0


def test_perturbed_point_counts_in_failed_point_frac(tmp_path):
    bench = _bench("point_loaded", tmp_path)
    result = _clean_pass(bench)
    label = bench.labels[1]
    result.digests[label]["events.flit_hops"] += 1
    bench.check(result)
    assert bench.tally.attempted == 3
    assert bench.tally.failed == 1
    assert bench.tally.failed_point_frac == pytest.approx(1 / 3)
    assert "events.flit_hops" in bench.tally.failures[label]


def test_missing_and_errored_points_fail(tmp_path):
    bench = _bench("point_loaded", tmp_path)
    result = _clean_pass(bench)
    del result.digests[bench.labels[0]]
    result.errors[bench.labels[2]] = "RuntimeError: boom"
    bench.check(result)
    assert bench.tally.failed_point_frac == pytest.approx(2 / 3)


def test_saturated_point_is_rejected_even_if_stored():
    expected = workloads.load_expected(workloads.WORKLOADS["point_light"], 1, False)
    label, stored = sorted(expected.items())[0]
    arch, rest = label.split(" ")
    kind = "uniform" if rest.startswith("UR") else "nuca"
    knee = workloads.knee_latency(arch, kind)
    assert workloads.check_point(stored, stored, knee) is None

    saturated = dict(stored, saturated=True)
    reason = workloads.check_point(saturated, saturated, knee)
    assert reason is not None and "saturated" in reason

    past_knee = dict(stored, avg_latency=knee * 1.01)
    reason = workloads.check_point(past_knee, past_knee, knee)
    assert reason is not None and "knee" in reason


def test_every_seed_has_clean_stored_statistics():
    for workload in workloads.WORKLOADS.values():
        knees = {
            p.label: workloads.knee_latency(p.arch, p.kind)
            for p in workload.points
        }
        for seed in workloads.PROGRAM_SEEDS:
            for smoke in (False, True):
                stored = workloads.load_expected(workload, seed, smoke)
                assert set(stored) == set(knees), (workload.name, seed, smoke)
                for label, digest in stored.items():
                    assert workloads.check_point(
                        digest, digest, knees[label]
                    ) is None, (workload.name, seed, label)


def test_tracer_restores_every_wrapped_function():
    from repro.experiments import runner, sweep
    from repro.noc.router import Router

    before = (
        vars(Router)["step"], vars(runner)["power_report"],
        vars(sweep)["point_key"],
    )
    tracer = tracing.Tracer()
    tracing.install_layers(tracer)
    assert vars(Router)["step"] is not before[0]
    assert tracer.restore() == []
    after = (
        vars(Router)["step"], vars(runner)["power_report"],
        vars(sweep)["point_key"],
    )
    assert after == before


def test_self_time_excludes_traced_children():
    class Owner:
        def child(self):
            return 1

        def parent(self):
            return self.child() + self.child()

    tracer = tracing.Tracer()
    tracer.wrap(Owner, "parent", "parent")
    tracer.wrap(Owner, "child", "child")
    try:
        assert Owner().parent() == 2
    finally:
        tracer.restore()
    assert tracer.calls == {"parent": 1, "child": 2}
    assert tracer.self_seconds["parent"] <= tracer.seconds["parent"]
    assert tracer.self_seconds["parent"] == pytest.approx(
        tracer.seconds["parent"] - tracer.seconds["child"]
    )


def test_swept_host_scale_waits_for_its_loop_workers():
    import multiprocessing

    wall_scale, cpu_scale = swept_host_scale()
    assert wall_scale > 0 and cpu_scale > 0
    assert multiprocessing.active_children() == []


def test_benchmark_json_names_the_printed_metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        PER_LAYER_UNITS
    )


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_completes_every_workload(name):
    for trace, units in (("0", END_TO_END_UNITS), ("1", PER_LAYER_UNITS)):
        proc = _run(
            ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
            "--trace", trace, "--smoke",
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] is True, proc.stdout
        assert result["failed"] == 0
        assert result["attempted"] >= len(workloads.WORKLOADS[name].points)
        assert list(result["metrics"]) == list(units)
        if trace == "1":
            observed = workloads.WORKLOADS[name].observed
            for metric in ("telemetry.on_cycle_s", "telemetry.finish_s"):
                value = result["metrics"][metric]["value"]
                assert (value > 0) == observed, (metric, value)


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERFBENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(
        str(tmp_path), "--workload", "point_light", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
