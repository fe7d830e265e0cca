#!/usr/bin/env python3
"""Benchmark of the twopolaritons solver.

Run from the repository root, one workload per process:

    python3 benchmarks/run.py --workload bound_survey_k0 --seed 3 \
        --seconds 8 --trace 0

Workloads (see ``workloads.py`` for inputs and the reason for each):
``bound_survey_k0``, ``bound_kband``, ``scatter_grid``, ``ed_oracle``.
``--workload all`` runs every workload, untraced and traced, each in a
fresh process, and prints one table.

``--trace 0`` measures end-to-end metrics over about ``--seconds`` seconds
of solver time at reference host speed, in whole passes (see
``hostspeed.py``); ``--trace 1`` runs a fixed task list, each task once
untraced and once traced, and reports per-layer calls, self time and
errors.  Both print a detail line (environment, failures with causes,
known defects, known-red values, raw times) and then, as the last line,
``{"correct", "attempted", "failed", "metrics"}``.

The solver is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.  BLAS runs on one thread and every
run is a single process (``jobs=1``).
"""

import time

T_ENTRY = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:      # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("bound_survey_k0", "bound_kband", "scatter_grid",
                  "ed_oracle")
SETUP_PROBES = 2            # extra fresh-process set-ups; median of 3
TAIL_MIN_ITEMS = 100
TAIL_BEYOND = 10
CHILD_TIMEOUT = 170.0


class SetupError(RuntimeError):
    """The solver sources are not where the benchmark expects them."""


def import_solver():
    """Import twopolaritons from ``src/`` of this checkout, nothing else."""
    package = SRC / "twopolaritons" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"solver sources not found: {package}")
    sys.path.insert(0, str(SRC))
    import twopolaritons
    if Path(twopolaritons.__file__).resolve() != package.resolve():
        raise SetupError(f"imported {twopolaritons.__file__}, "
                         f"expected {package}")
    import workloads
    return workloads


def environment(seed) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# measurement


def set_up(wl_mod, name, seed):
    """Import done; build the workload and run its warm-up item.

    Returns the workload and the set-up time ``(raw_s, reference_s)``, the
    latter scaled to reference host speed by a probe right after it.
    """
    wl = wl_mod.WORKLOADS[name](reference=wl_mod.load_reference(seed))
    wl.warmup(wl_mod.Recorder())
    raw = time.perf_counter() - T_ENTRY
    clock = hostspeed.HostClock()
    return wl, (raw, raw * clock.scale(clock.probe()))


def probe_setup(name, seed):
    """Set-up times ``(raw_s, reference_s)`` of one fresh benchmark process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT, cwd=ROOT)
    return tuple(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def median_hd(values) -> float:
    """Harrell-Davis estimate of the median.

    A weighted mean of all order statistics, so it moves smoothly where
    the item times have gaps, unlike the middle order statistic.
    """
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a = b = 0.5 * (n + 1)
    cdf = betainc(a, b, np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def tail(items):
    """Item time at the highest percentile with >= 10 items beyond it.

    Failed items count as beyond any limit; None below 100 items or when
    the failures alone fill the tail.
    """
    n = len(items)
    if n < TAIL_MIN_ITEMS:
        return None
    times = sorted(it.ms if it.ok else math.inf for it in items)
    k = n - TAIL_BEYOND - 1         # 0-based rank with 10 items above it
    value = times[k]
    if math.isinf(value):
        return None
    return {"value": value, "unit": "ms", "percentile": 100.0 * (k + 1) / n,
            "n": n}


def end_to_end(wl_mod, wl, seed, seconds, setup_main):
    """Whole passes until the next one would overrun ``seconds`` of solver
    time at reference speed, at the pace of the last one; at least one.

    Pacing on reference-speed time keeps the inputs of a run the same
    whether the host is fast or slow.
    """
    clock = hostspeed.HostClock()
    rec = wl_mod.Recorder(clock=clock)
    done, p = 0.0, 0
    while True:
        n_items, n_prep = len(rec.items), len(rec.prep)
        for task in wl.tasks(seed, p):
            wl.run_task(rec, task)
        p += 1
        step = sum(it.ms * clock.scale(it.probe)
                   for it in rec.items[n_items:]) + sum(
            ms * clock.scale(probe) for ms, probe in rec.prep[n_prep:])
        step /= 1e3
        done += step
        if done + step > seconds:
            break
    clock.probe()               # closes the bracket of the last call
    rss = peak_rss_mb()
    setups = [setup_main] + [probe_setup(wl.name, seed)
                             for _ in range(SETUP_PROBES)]
    return e2e_metrics(rec, rss, setups)


def scaled(rec, scale):
    """Items with ``scale(probe)`` applied, and busy seconds likewise."""
    items = [dataclasses.replace(it, ms=it.ms * scale(it.probe))
             for it in rec.items]
    busy = sum(it.ms for it in items) + sum(
        ms * scale(probe) for ms, probe in rec.prep)
    return items, busy / 1e3


def e2e_metrics(rec, rss, setups):
    """End-to-end metrics of a timed run, and the reported extras.

    Times are at reference host speed; the detail line carries the raw
    ones too.
    """
    clock = rec.clock
    items, busy = scaled(rec, clock.scale)
    raw_busy = rec.busy
    ok = sum(it.ok for it in items)
    metrics = {
        "ok_per_s": {"value": ok / busy, "unit": "1/s"},
        "item_ms_p50": {"value": median_hd([it.ms for it in items]),
                        "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "setup_s": {"value": statistics.median(s for _, s in setups),
                    "unit": "s"},
    }
    kernel_ms = [ms for _, ms in clock.samples]
    extra = {
        "fail_frac": {"value": (len(items) - ok) / len(items),
                      "unit": "fraction"},
        "item_ms_tail": tail(items),
        "raw_ok_per_s": {"value": ok / raw_busy, "unit": "1/s"},
        "raw_item_ms_p50": {
            "value": median_hd([it.ms for it in rec.items]),
            "unit": "ms"},
        "raw_setup_s": {"value": statistics.median(s for s, _ in setups),
                        "unit": "s"},
        "host_kernel_ms": {"reference": hostspeed.REFERENCE_MS,
                           "probes": len(kernel_ms),
                           "min": min(kernel_ms),
                           "median": statistics.median(kernel_ms),
                           "max": max(kernel_ms)},
        "setup_samples_s": setups,
    }
    return items, metrics, extra


def per_layer(wl_mod, tracer_mod, wl, seed):
    """Per-layer metrics of the first ``wl.trace_tasks`` tasks.

    Each task runs untraced and traced, in alternating order, so host
    slowdowns hit both sides alike."""
    tasks = [t for t, _ in zip(wl.task_stream(seed), range(wl.trace_tasks))]
    tracer = tracer_mod.Tracer()
    plain, rec = wl_mod.Recorder(), wl_mod.Recorder(tracer)
    for i, task in enumerate(tasks):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    wl.run_task(rec, task)
            else:
                wl.run_task(plain, task)
    table = tracer.summary()
    metrics = {}
    for layer, row in table.items():
        metrics[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
        metrics[f"{layer}.self_ms"] = {"value": row["self_ms"], "unit": "ms"}
        metrics[f"{layer}.errors"] = {"value": row["errors"], "unit": "count"}

    def ratio(a, b):
        return a / b if b else 0.0

    certified = tracer.outcomes["bound_states.find_bound_states"]
    calls = {layer: row["calls"] for layer, row in table.items()}
    metrics["bound_states.roots_per_state"] = {
        "value": ratio(calls["channels.find_channel_roots"], certified),
        "unit": "count"}
    metrics["bound_states.sigma_evals_per_gap"] = {
        "value": ratio(calls["bound_states.bound_matching_matrix"],
                       calls["bound_states.find_bound_states"]),
        "unit": "count"}
    metrics["bound_states.certified_per_build"] = {
        "value": ratio(certified,
                       calls["bound_states.build_bound_wavefunction"]),
        "unit": "ratio"}
    metrics["trace_overhead_frac"] = {
        "value": rec.busy / plain.busy - 1.0, "unit": "fraction"}
    extra = {"tasks": len(tasks), "certified_states": certified,
             "absent_layers": tracer.absent,
             "untraced_s": plain.busy, "traced_s": rec.busy,
             "identical_outputs": [it.value for it in plain.items]
             == [it.value for it in rec.items]}
    return rec.items, metrics, extra


def failures(items) -> dict:
    """Failed items grouped by cause (exception type or check)."""
    groups = {}
    for it in items:
        if it.ok:
            continue
        kind = " + ".join(part.split(":", 1)[0].strip()
                          for part in it.cause.split("; "))
        entry = groups.setdefault(kind, {"count": 0, "unexpected": 0,
                                         "examples": []})
        entry["count"] += 1
        entry["unexpected"] += int(it.unexpected)
        if len(entry["examples"]) < 3:
            entry["examples"].append(f"{it.key}: {it.cause[:300]}")
    return groups


def known_defects(wl_mod, wl):
    """Run the workload's known-defect inputs once, untimed.

    Returns their items and a report: failures grouped by cause, and the
    keys of the items that passed (the other items of a defect input, or a
    defect that no longer shows).
    """
    rec = wl_mod.Recorder()
    for task in wl.DEFECTS:
        wl.run_task(rec, task)
    return rec.items, {"items": len(rec.items),
                       "failures": failures(rec.items),
                       "passed": [it.key for it in rec.items if it.ok]}


def known_red(wl_mod) -> dict:
    """The known-red values, or why they could not be computed."""
    from twopolaritons.errors import TwoPolaritonError
    try:
        return wl_mod.known_red()
    except TwoPolaritonError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_one(name, seed, seconds, trace) -> int:
    wl_mod = import_solver()
    wl, setup_main = set_up(wl_mod, name, seed)
    if trace:
        import tracer as tracer_mod
        items, metrics, extra = per_layer(wl_mod, tracer_mod, wl, seed)
    else:
        items, metrics, extra = end_to_end(wl_mod, wl, seed, seconds,
                                           setup_main)
    defect_items, defects = known_defects(wl_mod, wl)
    detail = {
        "workload": name,
        "why": wl_mod.WHY[name],
        "trace": trace,
        "environment": environment(seed),
        "metrics": metrics,
        "extra": extra,
        "failures": failures(items),
        "known_defects": defects,
        "known_red": known_red(wl_mod),
    }
    failed = sum(not it.ok for it in items)
    correct = not any(it.unexpected for it in items + defect_items)
    if trace:
        correct = correct and extra["identical_outputs"]
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": correct, "attempted": len(items),
                      "failed": failed, "metrics": metrics}))
    return 0


# --------------------------------------------------------------------------
# all workloads in one command


def run_all(seed, seconds) -> int:
    script = str(Path(__file__).resolve())
    status = 0
    for name in WORKLOAD_NAMES:
        detail = None
        for trace in (0, 1):
            cmd = [sys.executable, script, "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace",
                   str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            detail_line, result_line = proc.stdout.strip().splitlines()[-2:]
            detail, result = json.loads(detail_line), json.loads(result_line)
            print(f"== {name} (trace={trace}) correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            rows = dict(result["metrics"])
            rows.update({k: v for k, v in detail["extra"].items()
                         if isinstance(v, dict) and "unit" in v})
            for metric, entry in rows.items():
                print(f"   {metric:48s} {entry['value']!s:>24} "
                      f"{entry['unit']}")
            for kind, entry in detail["failures"].items():
                print(f"   failed {entry['count']:4d} x {kind}: "
                      f"{entry['examples'][0]}")
        if detail is not None:
            for kind, entry in detail["known_defects"]["failures"].items():
                print(f"   known defect {entry['count']:2d} x {kind}: "
                      f"{entry['examples'][0]}")
            print(f"   known-defect items that pass: "
                  f"{len(detail['known_defects']['passed'])} of "
                  f"{detail['known_defects']['items']}")
            print(f"   known red: {json.dumps(detail['known_red'])}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        if args.setup_probe:
            wl_mod = import_solver()
            _, setup = set_up(wl_mod, args.workload, args.seed)
            print(json.dumps({"setup_s": setup}))
            return 0
        return run_one(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
