"""Workloads of the solver benchmark: seeded inputs, timed items, output checks.

A workload is an endless sequence of *passes*.  Pass ``p`` of seed ``s``
draws its inputs from ``random.Random(f"{workload}:{s}:{p}")``, one draw
per equal-width stratum, so every pass carries nearly the same work and
the same seed always gives the same inputs.  A pass is a list of *tasks*;
a task runs one or more *items*, the unit that is timed and checked.

Inputs are drawn from fixed grids on which every item passed its checks
when the grids were scanned (all of them, with this module's own
``run_task``).  Where the solver refuses an input or an acceptance check
fails, that input is left out of the timed work and run instead as a
*known defect* once per run, after the measurement; its outcome is
reported with its cause but counts neither as attempted nor as failed.

Items call the solver through module attributes (``bound_states.find_...``)
so that the tracer's wrappers see the benchmark's own calls too.

Failure classes:

* a ``TwoPolaritonError`` raised by the solver fails the item; the solver
  refused the input, which is not a wrong answer;
* an acceptance check (criterion 1 state count, criterion 2 ED bounds, the
  ring band-edge audit) that does not hold fails the item;
* a certificate check on a result the solver returned (site residual,
  energy inside its gap, scattering residual/current/reciprocity, the
  reference energies) or any other exception fails the item and marks the
  run incorrect.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from twopolaritons import bands, bound_states, model, ring_ed, scattering, sweeps
from twopolaritons.errors import TwoPolaritonError
from twopolaritons.model import ModelParams

DEFAULT_SEED = 0
REFERENCE_FILE = Path(__file__).with_name("reference_energies.json")

CERT_TOL = 1e-8         # site residual, current and reciprocity
REF_TOL = 1e-9          # bound-state energies against the reference file
L_CHECK = 60            # residual window |l| <= L_CHECK

XI_SET = (-0.2, -0.5, -0.75)
# detunings of bound_survey_k0: j / 32 for |j| <= 320
K0_GRID = tuple(j / 32 for j in range(-320, 321))
KBAND_PAIRS = ((-0.2, -2.0), (-0.3, -1.0))
KBAND_STEPS = 32        # K = j * pi / 32 for 0 < j < 32
# grid K where a single bad scan energy raises ConditioningError in gap 2
KBAND_BAD_J = {(-0.3, -1.0): (4, 10, 11, 12, 13, 21, 24)}
SCATTER_CASES = (("AA", -10.0), ("AA", 10.0), ("BB", 10.0),
                 ("AB", -10.0), ("AB", 10.0))
ED_SIZES = (24, 48, 64)
ED_AUDIT_N = 48
# detunings of ed_oracle at K = 0: j / 16 for |j| <= 12.  From |delta| =
# 0.875 on, the N = 48 band-edge audit fails, and from about 1.8 on, so
# does the N = 48 energy bound for the weakly bound state.
ED_GRID = tuple(j / 16 for j in range(-12, 13))

# One-line reason for each workload, reported with every result.
WHY = {
    "bound_survey_k0": "acceptance survey at K=0: batched sigma scan, dip "
                       "refinement and the 10,000-site table near |delta|=10; "
                       "no general-K roots, scattering or ED",
    "bound_kband": "K != 0 bound states: the scalar scan of ~460 channel-root "
                   "calls per gap, the layer bound_survey_k0 uses only to "
                   "refine",
    "scatter_grid": "scattering acceptance cases: one root-find and heavy "
                    "assembly per item, no scan, refinement or ED",
    "ed_oracle": "the only workload that runs ring ED: embedding, Hamiltonian "
                 "build and momentum blocks at K=0",
}


# --------------------------------------------------------------------------
# items and their recorder


@dataclass
class Item:
    key: str            # the inputs, readable
    ms: float           # wall time of the solver call
    probe: int          # host-speed probe before the call, -1 for none
    ok: bool
    cause: str          # "" when ok
    unexpected: bool    # failure that means a wrong certified output or a bug
    value: object       # output summary, compared exactly by the self-test


class Recorder:
    """Runs solver calls, times them, applies checks, collects items.

    ``busy`` accumulates the wall time spent inside solver calls; checks
    run outside it.  ``prep`` keeps ``(ms, probe)`` of the preparation
    calls that succeeded.  With a host clock, calls are bracketed by its
    speed probes; with a tracer, every call is a root span.
    """

    def __init__(self, tracer=None, clock=None):
        self.tracer = tracer
        self.clock = clock
        self.items = []
        self.prep = []
        self.busy = 0.0

    def call(self, key, fn, check=None, item=True):
        """Run ``fn()``; return its output, or None when it raised.

        ``check(out)`` returns ``(problems, value)``; each problem is a
        ``(tag, message, unexpected)`` triple.
        A call with ``item=False`` is preparation inside a task: it is
        timed but becomes an item only when it fails, since the items that
        needed it could not run.
        """
        cause, unexpected, out = "", False, None
        probe = -1 if self.clock is None else self.clock.before_call()
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.root(key):
                    out = fn()
        except TwoPolaritonError as exc:
            cause = f"{type(exc).__name__}: {exc}"
        except Exception as exc:    # a bug: record it and keep running
            cause = f"{type(exc).__name__}: {exc} | " + \
                traceback.format_exc(limit=3).replace("\n", " ")
            unexpected = True
        dt = time.perf_counter() - t0
        self.busy += dt
        value = None
        if not cause and check is not None:
            try:
                problems, value = check(out)
            except Exception as exc:    # the output broke the check itself
                problems = [("check_error", f"{type(exc).__name__}: {exc}",
                             True)]
            if problems:
                cause = "; ".join(f"{tag}: {msg}" for tag, msg, _ in problems)
                unexpected = any(flag for _, _, flag in problems)
        if item or cause:
            self.items.append(Item(key=key, ms=dt * 1e3, probe=probe,
                                   ok=not cause, cause=cause,
                                   unexpected=unexpected, value=value))
        else:
            self.prep.append((dt * 1e3, probe))
        return out


# --------------------------------------------------------------------------
# independent output checks


def site_defect(state, params: ModelParams, n: int = L_CHECK) -> float:
    """Largest site-equation defect of a bound state over |l| <= n.

    Applies the block-tridiagonal pair Hamiltonian to the state's own
    spinors, without the solver's residual routine.
    """
    ls = np.arange(-n - 1, n + 2)
    psi = state.wavefunction(ls)
    mats = model.bloch_matrices(params)
    hp, hm = model.hop_blocks(params)
    mid = psi[1:-1]
    image = mid @ mats.onsite.T + psi[:-2] @ hp.T + psi[2:] @ hm.T
    image[n] += model.contact_interaction(params) @ psi[n + 1]
    return float(np.abs(image - state.energy * mid).max())


def check_states(gap, states, params, *, want_one: bool):
    problems = []
    if want_one and len(states) != 1:
        problems.append(("criterion1_count",
                         f"gap {gap.index}: {len(states)} states, expected 1",
                         False))
    for st in states:
        if not gap.lo < st.energy < gap.hi:
            problems.append(("outside_gap",
                             f"gap {gap.index}: E_b={st.energy!r} outside "
                             f"({gap.lo!r}, {gap.hi!r})", True))
        defect = site_defect(st, params)
        if not defect < CERT_TOL:
            problems.append(("bound_residual",
                             f"gap {gap.index}: site residual {defect:.3g}",
                             True))
    return problems


def check_reference(key, energies, reference):
    """Energies against the committed reference, where it has this input."""
    if reference is None or key not in reference or reference[key] is None:
        return []
    want = reference[key]
    if len(want) != len(energies) or any(
            abs(a - b) > REF_TOL for a, b in zip(want, energies)):
        return [("reference",
                 f"energies {energies} differ from reference {want}", True)]
    return []


def load_reference(seed):
    if seed != DEFAULT_SEED or not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text())["energies"]


# --------------------------------------------------------------------------
# seeded inputs


def _rng(workload, seed, p):
    return random.Random(f"{workload}:{seed}:{p}")


def strata(rng, lo, hi, n):
    """One uniform draw from each of n equal-width strata of [lo, hi)."""
    width = (hi - lo) / n
    return [lo + width * (i + rng.random()) for i in range(n)]


def grid_strata(rng, points, n):
    """One draw from each of n runs of consecutive grid points, as equal in
    length as the grid allows."""
    bounds = [round(i * len(points) / n) for i in range(n + 1)]
    return [rng.choice(points[a:b]) for a, b in zip(bounds, bounds[1:])]


def _fmt(x):
    return repr(float(x))


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Base: ``tasks(seed, p)`` lists pass p; ``run_task`` runs one task."""

    name = ""
    trace_tasks = 0        # tasks in the fixed traced run
    DEFECTS = ()           # tasks that fail at this commit; never timed

    def __init__(self, reference=None):
        self.reference = reference

    def tasks(self, seed, p):
        raise NotImplementedError

    def warmup(self, rec: Recorder):
        """One representative item, run untimed before measuring."""
        self.run_task(rec, self.WARMUP)

    def run_task(self, rec: Recorder, task):
        raise NotImplementedError

    def task_stream(self, seed):
        p = 0
        while True:
            yield from self.tasks(seed, p)
            p += 1


class BoundSurveyK0(Workload):
    name = "bound_survey_k0"
    n_strata = 8            # detuning strata of [-10, 10] per hopping
    trace_tasks = 96        # four passes
    WARMUP = (-0.2, -2.0)
    # off the grid: a single bad scan energy raises ConditioningError
    DEFECTS = ((-0.2, -1.042), (-0.5, -1.273))

    def tasks(self, seed, p):
        rng = _rng(self.name, seed, p)
        return [(xi, d) for xi in XI_SET
                for d in grid_strata(rng, K0_GRID, self.n_strata)]

    def run_task(self, rec, task):
        xi, delta = task
        key = f"k0 xi={_fmt(xi)} delta={_fmt(delta)}"

        def check(points):
            pt = points[0]
            problems = []
            for gap, states in zip(pt.gaps, pt.states):
                problems += check_states(gap, states, pt.params, want_one=True)
            energies = [st.energy for states in pt.states for st in states]
            problems += check_reference(key, energies, self.reference)
            value = tuple((gap.index, tuple(st.energy for st in states),
                           tuple(st.weights for st in states))
                          for gap, states in zip(pt.gaps, pt.states))
            return problems, value

        rec.call(key, lambda: sweeps.bound_sweep(xi, [delta], K=0.0, jobs=1),
                 check)


class BoundKBand(Workload):
    name = "bound_kband"
    n_strata = 6            # K strata of the grid per (xi, delta)
    trace_tasks = 12        # one pass
    WARMUP = (-0.2, -2.0, math.pi / 2)
    # ChannelCountError at the zone boundary; ConditioningError in gap 2
    DEFECTS = ((-0.2, -2.0, math.pi), (-0.3, -1.0, math.pi),
               (-0.3, -1.0, math.pi / 8))

    @staticmethod
    def grid(pair):
        bad = KBAND_BAD_J.get(pair, ())
        return [j * math.pi / KBAND_STEPS for j in range(1, KBAND_STEPS)
                if j not in bad]

    def tasks(self, seed, p):
        rng = _rng(self.name, seed, p)
        return [(xi, delta, k) for xi, delta in KBAND_PAIRS
                for k in grid_strata(rng, self.grid((xi, delta)),
                                     self.n_strata)]

    @staticmethod
    def key(task, gap_index):
        xi, delta, k = task
        return (f"kband xi={_fmt(xi)} delta={_fmt(delta)} K={_fmt(k)} "
                f"gap={gap_index}")

    def run_task(self, rec, task):
        xi, delta, k = task
        params = ModelParams(xi=xi, delta=delta, K=k)
        bs = rec.call(self.key(task, "all"),
                      lambda: bands.band_structure(params), item=False)
        for gap in (bs.gaps if bs is not None else ()):
            key = self.key(task, gap.index)

            def check(states, gap=gap, key=key):
                problems = check_states(gap, states, params, want_one=False)
                energies = [st.energy for st in states]
                problems += check_reference(key, energies, self.reference)
                return problems, tuple(energies)

            rec.call(key, lambda gap=gap: bound_states.find_bound_states(
                params, gap), check)


class ScatterGrid(Workload):
    name = "scatter_grid"
    n_strata = 4            # q strata of [0.3, 2.8] per case and K
    trace_tasks = 400       # ten passes
    WARMUP = ("AB", 10.0, 0.0, 1.0)

    def tasks(self, seed, p):
        rng = _rng(self.name, seed, p)
        return [(branch, delta, k, q)
                for branch, delta in SCATTER_CASES
                for k in (0.0, math.pi / 2)
                for q in strata(rng, 0.3, 2.8, self.n_strata)]

    def run_task(self, rec, task):
        branch, delta, k, q = task
        params = ModelParams(xi=-0.2, delta=delta, K=k)
        key = (f"scatter {branch} delta={_fmt(delta)} K={_fmt(k)} "
               f"q={_fmt(q)}")

        def check(sol):
            problems = []
            if not sol.residual_max < CERT_TOL:
                problems.append(("scatter_residual",
                                 f"site residual {sol.residual_max:.3g}", True))
            if not sol.current_max < CERT_TOL:
                problems.append(("scatter_current",
                                 f"current {sol.current_max:.3g}", True))
            if branch == "AB" and k == 0.0:
                diff = abs(sol.coefficient("AB") - sol.coefficient("BA"))
                if not diff < CERT_TOL:
                    problems.append(("reciprocity",
                                     f"|f(AB<-AB) - f(BA<-AB)| = {diff:.3g}",
                                     True))
            return problems, tuple(complex(a) for a in sol.amplitudes)

        rec.call(key, lambda: scattering.solve_scattering(branch, q, params),
                 check)


class EdOracle(Workload):
    name = "ed_oracle"
    n_strata = 4            # detuning strata of the grid per pass
    trace_tasks = 8         # two passes
    # README points: the N = 48 band-edge audit and energy bound fail at
    # delta = -2; the ED overlap is 0 at K = pi/2 (criterion 2)
    DEFECTS = ((-2.0, 0.0), (0.0, math.pi / 2))

    def tasks(self, seed, p):
        rng = _rng(self.name, seed, p)
        return [(delta, 0.0)
                for delta in grid_strata(rng, ED_GRID, self.n_strata)]

    def warmup(self, rec):
        params = ModelParams(xi=-0.2, delta=0.0)
        gap = bands.band_structure(params).gaps[0]
        st = bound_states.find_bound_states(params, gap)[0]
        rec.call("ed warmup N=24",
                 lambda: ring_ed.compare_bound_state(st, (24,)),
                 lambda rows: self.check_row(rows[0], None))

    def run_task(self, rec, task):
        delta, k = task
        params = ModelParams(xi=-0.2, delta=delta, K=k)
        point = f"ed delta={_fmt(delta)} K={_fmt(k)}"
        bs = rec.call(point + " bands", lambda: bands.band_structure(params),
                      item=False)
        for gap in (bs.gaps if bs is not None else ()):
            gtag = f"{point} gap={gap.index}"
            states = rec.call(gtag + " find",
                              lambda gap=gap: bound_states.find_bound_states(
                                  params, gap), item=False)
            for st in states or ():
                prev = None
                for n in ED_SIZES:
                    row = rec.call(
                        f"{gtag} N={n}",
                        lambda st=st, n=n: ring_ed.compare_bound_state(st, (n,)),
                        lambda rows, prev=prev: self.check_row(rows[0], prev))
                    prev = row[0] if row is not None else None
        rec.call(f"{point} audit N={ED_AUDIT_N}",
                 lambda: ring_ed.band_edge_check(params, ED_AUDIT_N),
                 self.check_audit)

    @staticmethod
    def check_row(row, prev):
        """Criterion-2 bounds; they apply from N = 48 up."""
        problems = []
        if row.N >= 48:
            if not row.error < 1e-6:
                problems.append(("ed_energy_error",
                                 f"N={row.N} energy error {row.error:.3g} "
                                 f">= 1e-6", False))
            if not row.overlap > 0.9999:
                problems.append(("ed_overlap",
                                 f"N={row.N} overlap {row.overlap:.6f} "
                                 f"<= 0.9999", False))
        if prev is not None and prev.error > 1e-10 and \
                not row.error < prev.error:
            problems.append(("ed_error_growth",
                             f"error not decreasing N={prev.N}->{row.N}: "
                             f"{prev.error:.3g} -> {row.error:.3g}", False))
        return problems, (row.N, row.energy, row.error, row.overlap)

    @staticmethod
    def check_audit(report):
        problems = []
        if not report.ok:
            problems.append((
                "band_edge_audit",
                f"band_edge_check N={report.N} not ok: "
                f"{len(report.violations)} violations, "
                f"{len(report.in_gap)} in-gap vs "
                f"{report.expected_bound_count} expected", False))
        return problems, (report.ok, report.in_gap, report.band_counts)


WORKLOADS = {cls.name: cls for cls in
             (BoundSurveyK0, BoundKBand, ScatterGrid, EdOracle)}


# --------------------------------------------------------------------------
# values the acceptance tests hold red, recorded but never gated on


def known_red() -> dict:
    """The three known-red acceptance values (criteria 1-3)."""
    pt = sweeps.bound_sweep(-0.2, [-10.0], K=0.0, jobs=1)[0]
    photon = {g.index: s[0].weights[0] for g, s in zip(pt.gaps, pt.states)
              if s}.get(1)
    shift = 0.0
    for delta in (-2.0, 2.0):
        p = ModelParams(xi=-0.2, delta=delta)
        for gap in bands.band_structure(p).gaps:
            for st in bound_states.find_bound_states(p, gap):
                if abs(st.decay_rate - 0.19) < 0.01:
                    row = ring_ed.compare_bound_state(st, (48,))[0]
                    shift = max(shift, row.error)
    f_max = 0.0
    for delta in (-10.0, 10.0):
        p = ModelParams(xi=-0.2, delta=delta)
        for q in np.linspace(0.3, 2.8, 100):
            sol = scattering.solve_scattering("AB", q, p)
            f_max = max(f_max, abs(sol.coefficient("AB")) ** 2)
    return {
        "gap1_photon_weight_delta_-10": {"value": photon, "bound": "> 0.98"},
        "ed_shift_N48_kappa_0.19": {"value": shift, "bound": "< 1e-6"},
        "max_abs_f_AB_AB_sq_delta_10": {"value": f_max, "bound": "< 0.05"},
    }
