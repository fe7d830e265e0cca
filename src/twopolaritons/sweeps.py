"""Process-parallel parameter sweeps shared by the CLI and the tests.

Workers recompute everything from plain parameter tuples, so scheduling
never influences results; assembly preserves submission order, which
makes sweep output deterministic for any job count.  A bound sweep point
searches all open gaps of its parameter set in lockstep, one lane per gap
(bound_states.search_gaps), and resolves the lanes in gap order: a
refused gap is skipped, any other error raises.  Lanes hold the gaps of
one point only; the detunings of a sweep are points of their own (lanes
across a sweep wait for ROADMAP item 5's sweep workload).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .bands import band_structure
from .bound_states import search_gaps
from .errors import DegenerateParametersError, ParameterError, TwoPolaritonError
from .model import ModelParams
from .scattering import solve_scattering

__all__ = [
    "BoundSweepPoint",
    "bound_sweep",
    "scatter_sweep",
]


@dataclass(frozen=True)
class BoundSweepPoint:
    """Bound-state inventory of one detuning value, and the gaps skipped."""

    params: ModelParams
    gaps: tuple      # open gaps searched, ascending index
    states: tuple    # tuple of BoundState tuples, aligned with gaps
    skipped: tuple   # (gap index, reason) of each open gap refused

    @property
    def delta(self) -> float:
        return self.params.delta

    @property
    def note(self) -> str:
        """Why open gaps were skipped, "" if none was."""
        return "; ".join(f"gap {index}: {reason}" for index, reason in self.skipped)


@dataclass(frozen=True)
class ScatterSweepPoint:
    """One scattering solve, or the reason it was skipped."""

    params: ModelParams
    branch: str
    q: float
    solution: object
    note: str

    @property
    def delta(self) -> float:
        return self.params.delta


# refusals of the point itself; a solver failure inside a gap (a pole of S,
# a degenerate null space) would leave a wrong inventory, so it propagates
_GAP_REFUSALS = (ParameterError, DegenerateParametersError)


def _bound_point(params) -> BoundSweepPoint:
    gaps, states, skipped = [], [], []
    open_gaps = band_structure(params).gaps
    for gap, found in zip(open_gaps, search_gaps(params, open_gaps)):
        try:
            certified = found()
        except _GAP_REFUSALS as exc:
            skipped.append((gap.index, str(exc)))
            continue
        gaps.append(gap)
        states.append(tuple(certified))
    return BoundSweepPoint(params=params, gaps=tuple(gaps),
                           states=tuple(states), skipped=tuple(skipped))


def _scatter_point(args) -> ScatterSweepPoint:
    params, branch, q = args
    try:
        sol = solve_scattering(branch, q, params)
        return ScatterSweepPoint(params=params, branch=branch, q=q,
                                 solution=sol, note="")
    except TwoPolaritonError as exc:
        return ScatterSweepPoint(params=params, branch=branch, q=q,
                                 solution=None, note=str(exc))


def _run(fn, items, jobs):
    items = list(items)
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) < 2:
        return [fn(it) for it in items]
    chunk = max(1, len(items) // (jobs * 4))
    import multiprocessing      # here, not at import: most processes run one job
    with multiprocessing.Pool(processes=jobs) as pool:
        return pool.map(fn, items, chunksize=chunk)


def bound_sweep(xi, deltas, K: float = 0.0, jobs=None) -> list:
    """Bound states over a detuning grid; one point per delta, in order."""
    items = [ModelParams(xi=xi, delta=float(d), K=K) for d in deltas]
    return _run(_bound_point, items, jobs)


def scatter_sweep(branch: str, qs, deltas, xi, K: float = 0.0,
                  jobs=None) -> list:
    """Scattering solves on a (delta, q) grid, delta-major order."""
    items = [(ModelParams(xi=xi, delta=float(d), K=K), branch, float(q))
             for d in deltas for q in qs]
    return _run(_scatter_point, items, jobs)
