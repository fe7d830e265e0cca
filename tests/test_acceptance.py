"""End-to-end acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (with the measured values behind
any failing sub-clause) and asserts that no sub-clause failed.  The sweeps
are shared between criteria through module-scoped fixtures, so the
certificate audit in criterion 4 sees exactly the solutions produced by
criteria 1 and 3.

Criteria 1-3 check the contact interaction at extreme detuning, and each of
their bounds comes from a computation that shares no code path with the
solver's matching system:

- composition of a shallow edge state: the free pair at the band-edge
  momentum (closed-form JC mixing via ``branch_vector``), or the ring-ED
  eigenvector where the state is deep enough for a small ring;
- ring-ED energy shifts: the ``exp(-kappa*N)`` finite-size law, so the
  1e-6 bound is taken on a ring sized from kappa and the N = 24 -> 48 shift
  must decay at the rate kappa;
- elastic AB scattering: the 1D contact law, with the contact fixed by the
  on-site JC level shift and the speed by the closed-form dispersion.

Criteria 5 and 6 read the validation checks that own their invariants,
through the session-wide ``check_result`` fixture, so each check runs once.
"""

import math
import time

import numpy as np
import pytest

from twopolaritons.bands import (
    band_structure,
    branch_energy,
    branch_energy_derivative,
    branch_vector,
)
from twopolaritons.bound_states import find_bound_states
from twopolaritons.model import ModelParams, hop_blocks
from twopolaritons.ring_ed import (
    FAMILIES,
    TwoExcitationBasis,
    compare_bound_state,
    ring_sector,
)
from twopolaritons.scattering import solve_scattering
from twopolaritons.sweeps import bound_sweep

XI_SET = (-0.2, -0.5, -0.75)
DELTA_GRID = np.linspace(-10.0, 10.0, 401)   # step 0.05
Q_GRID = np.linspace(0.3, 2.8, 100)
SCATTER_CASES = (("AA", -10.0), ("AA", 10.0), ("BB", 10.0),
                 ("AB", -10.0), ("AB", 10.0))
ED_MAX_N = 200      # largest ring the acceptance gate diagonalizes


def report(name, failures):
    if failures:
        print(f"{name}: FAIL ({len(failures)} sub-clauses)")
        for line in failures:
            print(f"  - {line}")
    else:
        print(f"{name}: PASS")
    assert not failures, f"{name}: {len(failures)} sub-clauses failed"


def ring_size(kappa):
    """Smallest ring, at least 48 sites, whose exp(-kappa*N) shift is < 1e-6.

    Returns None for a state too shallow to diagonalize on a ring of at
    most ED_MAX_N sites.
    """
    n = max(48, math.ceil(math.log(1e6) / kappa))
    return n if n <= ED_MAX_N else None


def edge_pair(gap, edge, params):
    """Free pair (branch, q) whose energy is the gap's `edge` ('lo'/'hi').

    At K = 0 every branch extremum sits at q = 0 or pi.  Returns the
    nearest candidate and its energy distance from the edge.
    """
    labels = gap.above if edge == "hi" else gap.below
    level = getattr(gap, edge)
    dist, branch, q = min(
        (abs(branch_energy(b, q, params) - level), b, q)
        for b in labels for q in (0.0, np.pi))
    return branch, q, dist


def ring_composition(state, N):
    """Weights of the ring eigenvector paired with `state`.

    The eigenvector is the one compare_bound_state pairs with the state;
    its weight is summed over the pp/mix/tt families of the ring basis,
    which knows nothing of the solver's spinors.
    """
    _, vec = ring_sector(state.params, N).nearest_in_gap(state)
    basis = TwoExcitationBasis(N)
    sizes = [basis.sites(kind)[0].size for kind in FAMILIES]
    w = np.split(np.abs(vec) ** 2, np.cumsum(sizes)[:-1])
    return tuple(part.sum() for part in w)


@pytest.fixture(scope="module")
def bound_survey():
    """Criterion-1 sweeps: detuning scan of both gaps for each hopping."""
    t0 = time.perf_counter()
    sweeps = {xi: bound_sweep(xi, DELTA_GRID, K=0.0, jobs=4) for xi in XI_SET}
    return sweeps, time.perf_counter() - t0


@pytest.fixture(scope="module")
def scatter_survey():
    """Criterion-3 solutions, keyed by (incident branch, detuning)."""
    t0 = time.perf_counter()
    sols = {}
    for branch, delta in SCATTER_CASES:
        p = ModelParams(xi=-0.2, delta=delta)
        sols[(branch, delta)] = [solve_scattering(branch, q, p)
                                 for q in Q_GRID]
    return sols, time.perf_counter() - t0


def test_criterion_1(bound_survey):
    """Bound-state diagram over detuning for three hopping strengths."""
    sweeps, elapsed = bound_survey
    failures = []
    for xi, points in sweeps.items():
        for pt in points:
            if pt.note:
                failures.append(f"xi={xi} delta={pt.delta:.2f}: {pt.note}")
            if len(pt.gaps) != 2:
                continue
            g1, g2 = pt.gaps
            if "AA" not in g1.above or "AB" not in g1.below:
                failures.append(f"xi={xi} delta={pt.delta:.2f}: upper gap "
                                f"not between AB top and AA bottom")
            if "AB" not in g2.above or "BB" not in g2.below:
                failures.append(f"xi={xi} delta={pt.delta:.2f}: lower gap "
                                f"not between BB top and AB bottom")
            for gap, states in zip(pt.gaps, pt.states):
                if len(states) != 1:
                    failures.append(
                        f"xi={xi} delta={pt.delta:.2f} gap {gap.index}: "
                        f"{len(states)} certified states, expected 1")
                    continue
                e = states[0].energy
                if not gap.lo < e < gap.hi:
                    failures.append(
                        f"xi={xi} delta={pt.delta:.2f} gap {gap.index}: "
                        f"E_b={e:.6f} outside ({gap.lo:.6f}, {gap.hi:.6f})")

        # Extreme-detuning placement and composition.  Under delta -> -delta
        # the photon-pair edge state of gap 1 maps onto that of gap 2, and
        # the state at the AB/BA edge maps onto itself in the other gap.
        ends = {}
        for pt in points:
            if abs(abs(pt.delta) - 10.0) < 1e-9 and len(pt.gaps) == 2:
                ends[pt.delta] = pt
        for delta, clauses in (
            (-10.0, ((1, "hi", "photon pair"), (2, "hi", "photon-TLS"))),
            (10.0, ((1, "lo", "photon-TLS"), (2, "lo", "photon pair"))),
        ):
            pt = ends.get(delta)
            if pt is None:
                failures.append(f"xi={xi}: gaps not both open at "
                                f"delta={delta}")
                continue
            by_id = {g.index: (g, s[0]) for g, s in zip(pt.gaps, pt.states)}
            for gap_id, edge, kind in clauses:
                gap, st = by_id[gap_id]
                tag = f"xi={xi} delta={delta} gap {gap_id}"
                dist = abs(st.energy - getattr(gap, edge))
                if dist >= 0.05:
                    failures.append(f"{tag}: edge distance {dist:.6f} "
                                    f">= 0.05")
                if kind == "photon pair":
                    # Bound by a few 1e-6 g with kappa ~ 1e-3, the state
                    # carries the composition of the free pair at the edge
                    # momentum: photon-pair weight c^4 of the JC mixing.
                    branch, q, miss = edge_pair(gap, edge, st.params)
                    if miss >= 1e-9:
                        failures.append(f"{tag}: no free pair at q in "
                                        f"{{0, pi}} on the edge ({miss:.3g})")
                    w_free = abs(branch_vector(branch, q, st.params)[0]) ** 2
                    if abs(st.weights[0] - w_free) >= 1e-4:
                        failures.append(
                            f"{tag}: photon-pair weight {st.weights[0]:.6f} "
                            f"vs free {branch}(q={q:.4f}) {w_free:.6f}")
                    continue
                # Near the AB/BA edge the state takes the mixed pair's
                # composition, photon-TLS dominated; the ring eigenvector on
                # a kappa-sized ring gives all three weights independently.
                if int(np.argmax(st.weights)) != 1:
                    failures.append(f"{tag}: photon-TLS weight not largest "
                                    f"in {np.round(st.weights, 6)}")
                n_ring = ring_size(st.decay_rate)
                if n_ring is None:
                    failures.append(f"{tag}: kappa {st.decay_rate:.3g} "
                                    f"needs a ring above {ED_MAX_N} sites")
                    continue
                w_ring = ring_composition(st, n_ring)
                dev = max(abs(a - b) for a, b in zip(st.weights, w_ring))
                if dev >= 1e-6:
                    failures.append(
                        f"{tag}: weights {np.round(st.weights, 8)} vs "
                        f"N={n_ring} ring {np.round(w_ring, 8)}: max "
                        f"|diff| {dev:.3g} >= 1e-6")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s >= 60 s")
    report("criterion 1", failures)


def test_criterion_2():
    """Ring-diagonalization agreement for both gaps at three detunings."""
    t0 = time.perf_counter()
    failures = []
    for delta in (-2.0, 0.0, 2.0):
        p = ModelParams(xi=-0.2, delta=delta)
        for gap in band_structure(p).gaps:
            st = find_bound_states(p, gap)[0]
            tag = f"delta={delta} gap {gap.index}"
            # The ring shift is finite-size physics, ~exp(-kappa*N): the
            # 1e-6 bound holds on the ring sized from kappa.
            n_ring = ring_size(st.decay_rate)
            if n_ring is None:
                failures.append(f"{tag}: kappa {st.decay_rate:.3g} needs a "
                                f"ring above {ED_MAX_N} sites")
                continue
            rows = compare_bound_state(st, sorted({24, 48, n_ring}))
            r24, r48, r_kappa = rows[0], rows[1], rows[-1]
            if r_kappa.error >= 1e-6:
                failures.append(f"{tag}: N={n_ring} energy error "
                                f"{r_kappa.error:.3g} >= 1e-6")
            # below ~1e-10 both errors sit at the eigensolver noise floor
            if r24.error > 1e-10 and r48.error >= r24.error:
                failures.append(f"{tag}: error not decreasing, "
                                f"{r24.error:.3g} -> {r48.error:.3g}")
            if r24.error > 1e-10 and r48.error > 1e-10:
                rate = math.log(r24.error / r48.error) / 24.0
                if abs(rate - st.decay_rate) >= 0.1 * st.decay_rate:
                    failures.append(f"{tag}: N=24 -> 48 shift decays at "
                                    f"{rate:.4f}/site, kappa "
                                    f"{st.decay_rate:.4f}")
            if r48.overlap <= 0.9999:
                failures.append(f"{tag}: overlap {r48.overlap:.6f} "
                                f"<= 0.9999")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    report("criterion 2", failures)


def test_criterion_3(scatter_survey):
    """Elastic scattering strengths at extreme detuning."""
    sols, elapsed = scatter_survey
    failures = []

    def elastic(branch, delta):
        return np.array([abs(s.coefficient(branch)) ** 2
                         for s in sols[(branch, delta)]])

    aa_far = elastic("AA", -10.0)
    if aa_far.max() >= 0.05:
        failures.append(f"|f(AA<-AA)|^2 at delta=-10: max {aa_far.max():.4f} "
                        f">= 0.05")
    mid = slice(33, 67)  # central third of the grid
    aa_res = elastic("AA", 10.0)[mid]
    if aa_res.min() <= 0.9:
        failures.append(f"|f(AA<-AA)|^2 mid-band at delta=+10: min "
                        f"{aa_res.min():.4f} <= 0.9")
    bb_far = elastic("BB", 10.0)
    if bb_far.max() >= 0.05:
        failures.append(f"|f(BB<-BB)|^2 at delta=+10: max {bb_far.max():.4f} "
                        f">= 0.05")
    for delta in (-10.0, 10.0):
        # The A-B contact is second order in g/delta: |2,g> pushes the
        # on-site |1,e> level by U = sqrt(delta^2/4 + 2g^2) - |delta|/2.
        # A 1D contact splits its scattering over the AB and BA channels,
        # |f|^2 = U^2 / (4 (U^2 + v^2)), which reaches the two-channel
        # unitarity cap 1/4 as the relative speed v = |dE/dq| goes to 0.
        p = ModelParams(xi=-0.2, delta=delta)
        u = math.sqrt(0.25 * delta ** 2 + 2.0 * p.g ** 2) - 0.5 * abs(delta)
        v = np.abs(branch_energy_derivative("AB", Q_GRID, p))
        law = u ** 2 / (4.0 * (u ** 2 + v ** 2))
        ab = elastic("AB", delta)
        dev = np.abs(ab - law) / law
        worst = int(np.argmax(dev))
        if dev[worst] >= 0.1:
            failures.append(f"|f(AB<-AB)|^2 at delta={delta:+.0f}, "
                            f"q={Q_GRID[worst]:.3f}: {ab[worst]:.4f} vs "
                            f"contact law {law[worst]:.4f} "
                            f"({dev[worst]:.1%} >= 10%)")
        if ab.max() > 0.25:
            failures.append(f"|f(AB<-AB)|^2 at delta={delta:+.0f}: max "
                            f"{ab.max():.4f} above the two-channel cap 1/4")
        worst_eq = max(abs(s.coefficient("AB") - s.coefficient("BA"))
                       for s in sols[("AB", delta)])
        if worst_eq >= 1e-8:
            failures.append(f"f(AB<-AB) vs f(BA<-AB) at delta={delta:+.0f}: "
                            f"max |diff| {worst_eq:.3g} >= 1e-8")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f} s >= 30 s")
    report("criterion 3", failures)


def test_criterion_4(bound_survey, scatter_survey):
    """Site-residual and zero-current certificates for every solution."""
    sweeps, _ = bound_survey
    sols, _ = scatter_survey
    failures = []
    ls = np.arange(-61, 62)
    n_bound = 0
    worst_resid = worst_cur = 0.0
    for xi, points in sweeps.items():
        _, hm = hop_blocks(ModelParams(xi=xi))
        for pt in points:
            for states in pt.states:
                for st in states:
                    n_bound += 1
                    worst_resid = max(worst_resid, st.residual_max)
                    psi = st.wavefunction(ls)
                    cur = 2.0 * np.imag(np.einsum(
                        "li,ij,lj->l", psi[:-1].conj(), hm, psi[1:]))
                    worst_cur = max(worst_cur, np.abs(cur).max())
    if worst_resid >= 1e-8:
        failures.append(f"bound-state site residual {worst_resid:.3g} "
                        f">= 1e-8 over {n_bound} states")
    if worst_cur >= 1e-8:
        failures.append(f"bound-state current {worst_cur:.3g} >= 1e-8")
    n_scatter = 0
    worst_resid = worst_cur = 0.0
    for sol_list in sols.values():
        for sol in sol_list:
            n_scatter += 1
            worst_resid = max(worst_resid, sol.residual_max)
            worst_cur = max(worst_cur, sol.current_max)
    if worst_resid >= 1e-8:
        failures.append(f"scattering site residual {worst_resid:.3g} "
                        f">= 1e-8 over {n_scatter} solutions")
    if worst_cur >= 1e-8:
        failures.append(f"scattering current {worst_cur:.3g} >= 1e-8")
    print(f"criterion 4 audited {n_bound} bound states and "
          f"{n_scatter} scattering solutions")
    report("criterion 4", failures)


def test_criterion_5(check_result):
    """Structural invariants over 1000 randomized parameter draws.

    The invariants are the validation checks below, each of which draws
    1000 random parameter sets; the criterion reads their results.
    """
    failures = []
    elapsed = 0.0
    for name in ("bloch-hermiticity", "branch-eigenstructure",
                 "branch-symmetries", "channel-roots"):
        result = check_result(name)
        elapsed += result.seconds
        if not result.passed:
            failures.append(f"{name}: {result.detail}")
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f} s >= 20 s")
    report("criterion 5", failures)


def test_criterion_6(check_result):
    """Vanishing-hopping limits against the single-site level set."""
    failures = []
    p = ModelParams(xi=-1e-3)
    bs = band_structure(p)
    if len(bs.gaps) != 2:
        failures.append(f"{len(bs.gaps)} gaps at xi=-1e-3, expected 2")
    energies = sorted(st.energy for gap in bs.gaps
                      for st in find_bound_states(p, gap))
    for e, target in zip(energies, (-np.sqrt(2.0), np.sqrt(2.0))):
        if abs(e - target) >= 1e-3:
            failures.append(f"bound energy {e:.8f} vs single-site doublet "
                            f"{target:+.8f}: |diff| {abs(e - target):.3g} "
                            f">= 1e-3")
    levels = check_result("ed-jc-levels")    # the xi = 0 ring spectrum
    if not levels.passed:
        failures.append(f"ed-jc-levels: {levels.detail}")
    report("criterion 6", failures)
