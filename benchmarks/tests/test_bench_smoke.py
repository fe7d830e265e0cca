"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest benchmarks/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

workloads = run.import_solver()
import hostspeed  # noqa: E402
import tracer  # noqa: E402
from twopolaritons import scattering  # noqa: E402
from twopolaritons.errors import TwoPolaritonError  # noqa: E402

SEED = 5
# few cheap tasks per workload; the first task of each stream
TINY = {"bound_survey_k0": 3, "bound_kband": 1, "scatter_grid": 12,
        "ed_oracle": 1}


def first_tasks(wl, n):
    return [t for t, _ in zip(wl.task_stream(SEED), range(n))]


def run_tasks(wl, tasks, trace=None):
    rec = workloads.Recorder(trace)
    for task in tasks:
        wl.run_task(rec, task)
    return rec


def outcome(rec):
    return [(it.key, it.ok, it.cause, it.value) for it in rec.items]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_results_identical(name):
    wl = workloads.WORKLOADS[name]()
    tasks = first_tasks(wl, TINY[name])
    plain = run_tasks(wl, tasks)
    trace = tracer.Tracer()
    with trace:
        traced = run_tasks(wl, tasks, trace)
    assert plain.items
    assert outcome(plain) == outcome(traced)
    assert trace.summary()["channels.find_channel_roots"]["calls"] > 0
    # wrappers are gone again
    assert scattering.solve_scattering.__module__ == "twopolaritons.scattering"
    assert not hasattr(scattering.solve_scattering, "__wrapped__")


@pytest.mark.parametrize("name", ["bound_survey_k0", "scatter_grid"])
def test_layer_counts_repeat_for_one_seed(name):
    def counts():
        wl = workloads.WORKLOADS[name]()
        wl.trace_tasks = TINY[name]
        _, metrics, extra = run.per_layer(workloads, tracer, wl, SEED)
        assert extra["identical_outputs"]
        return {k: v["value"] for k, v in metrics.items()
                if not k.endswith(".self_ms") and k != "trace_overhead_frac"}

    first, second = counts(), counts()
    assert first == second
    assert first["model.site_residual.calls"] > 0


def test_forced_error_is_counted_not_raised(monkeypatch):
    wl = workloads.WORKLOADS["scatter_grid"]()
    tasks = first_tasks(wl, 8)
    real = scattering.solve_scattering
    calls = []

    def flaky(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise TwoPolaritonError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(scattering, "solve_scattering", flaky)
    rec = workloads.Recorder(clock=hostspeed.HostClock())
    for task in tasks:
        wl.run_task(rec, task)
    rec.clock.probe()
    items, metrics, extra = run.e2e_metrics(rec, rss=1.0,
                                            setups=[(1.0, 1.0)])
    assert len(items) == 8
    assert extra["fail_frac"]["value"] == pytest.approx(1 / 8)
    bad = [it for it in rec.items if not it.ok]
    assert len(bad) == 1 and "forced failure" in bad[0].cause
    assert not bad[0].unexpected
    assert metrics["ok_per_s"]["value"] > 0


def test_drawn_inputs_avoid_known_defects():
    kband = workloads.WORKLOADS["bound_kband"]()
    bad = {(xi, delta, j * math.pi / workloads.KBAND_STEPS)
           for (xi, delta), js in workloads.KBAND_BAD_J.items() for j in js}
    for seed in range(20):
        tasks = kband.tasks(seed, 0)
        assert len(tasks) == 12
        assert not bad & set(tasks)
        assert all(0.0 < k < math.pi for _, _, k in tasks)
    for cls in workloads.WORKLOADS.values():
        wl = cls()
        for seed in range(5):
            assert not set(wl.DEFECTS) & set(wl.tasks(seed, 0))
            assert wl.tasks(seed, 1) == wl.tasks(seed, 1)


def test_known_defects_reported_apart():
    wl = workloads.WORKLOADS["bound_survey_k0"]()
    items, report = run.known_defects(workloads, wl)
    assert report["items"] == len(items) == len(wl.DEFECTS)
    failed = sum(e["count"] for e in report["failures"].values())
    assert failed + len(report["passed"]) == len(items)
    assert not any(it.unexpected for it in items)


def test_exits_nonzero_without_solver_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "scatter_grid", "--seed", "0", "--seconds", "1",
               "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
