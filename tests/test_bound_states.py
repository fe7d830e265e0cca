"""In-gap two-polariton bound states: detection, certification, composition.

The certificates of the reference states are asserted by the validation
check bound-certificates; the test named after it here plants a fault and
requires the check to fail.
"""

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import brentq

from twopolaritons import bound_states, channels, sweeps, validation
from twopolaritons.bands import Gap, band_structure
from twopolaritons.bound_states import find_bound_states, rayleigh_quotient
from twopolaritons.channels import contact_elimination, find_channel_roots
from twopolaritons.errors import ConditioningError, ParameterError, TwoPolaritonError
from twopolaritons.model import PARITY, ModelParams, bloch_matrices
from twopolaritons.sweeps import bound_sweep
from twopolaritons.validation import run_checks

# Frozen regression energies (g=1), found independently of the contact
# matrix by a scan of the smallest singular value of an 8x5 least-squares
# matching system (sites l = 0 and 1) that the solver no longer contains,
# except the (-0.2, -2) pair: the certified states of the README sample
# (sigma_min 3e-16, Rayleigh quotient equal to 1e-12).  The K = 0 ones are
# confirmed against ring diagonalization elsewhere in the suite, and off
# K = 0 the hopping blocks differ (hp != hm).
E_BOUND = {
    # (xi, delta, K) -> {gap_id: energy}
    (-0.2, 0.0, 0.0): {1: 1.3034485514726306, 2: -1.3034485514726306},
    (-0.2, -2.0, 0.0): {1: 0.14942651106312296, 2: -2.8414213090007334},
    (-0.3, -1.0, 0.7): {1: 0.42399875959932576, 2: -2.1055541240263946},
    (-0.2, -2.0, np.pi / 2): {1: 0.33965706552242436, 2: -2.8262807084705353},
}

# Points of the contact-matrix checks: both signs of the detuning, K = 0
# and three momenta where the closed-channel spinors are complex.
METHOD_POINTS = ((-0.2, -2.0, 0.0), (-0.3, -1.0, 0.7),
                 (-0.2, -2.0, np.pi / 2), (-0.5, 3.0, 2.0))

# Deep-detuning compositions (xi=-0.2, delta=-10): the upper-gap state is
# photon-pair dominated, the lower-gap state is dominated by the mixed slot.
DEEP = {
    1: (-0.5938823024605117, (0.979092, 0.020798, 0.000110)),
    2: (-10.447619143862972, (0.020457, 0.967867, 0.011676)),
}


# Functions and brackets for the Brent port; between them they take every
# branch of the iteration.  The first cubic takes accepted secant
# (interpolation) and inverse-quadratic (extrapolation) steps and a
# tolerance-sized final step; the exponential, bracketed high end first,
# rejects an interpolated step for bisection; the second cubic has steps
# whose acceptance turns on the factor 2 and on the step before last, and
# the quadratic one that turns on the - delta of the bound 3 |sbis| - delta;
# the step function never lowers |f|, so every step bisects; the line's
# first bisection lands on its zero; the last two vanish at an end.
BRENT_CASES = {
    "accepted-steps": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "rejected-step": (lambda x: math.exp(x) - 2.0, 4.0, -4.0),
    "step-bound": (lambda x: x ** 3 - 0.5, -1.0, 2.0),
    "bound-margin": (lambda x: (0.2 * x + 0.4) * x - 0.4, -1.0, 2.0),
    "bisection": (lambda x: 1.0 if x > 0.3 else -1.0, -1.0, 2.0),
    "zero-hit": (lambda x: x - 0.5, 0.0, 1.0),
    "zero-at-a": (lambda x: x, 0.0, 1.0),
    "zero-at-b": (lambda x: x - 1.0, 0.0, 1.0),
}


def evaluated(solver, f, a, b, xtol):
    """What solver(f, a, b, xtol) returns or raises, and the points it evaluates."""
    points = []

    def logged(x):
        points.append(x)
        return f(x)

    try:
        return solver(logged, a, b, xtol), points
    except Exception as exc:
        return exc, points


def scipy_brentq(f, a, b, xtol):
    return brentq(f, a, b, xtol=xtol)


def package_brent(f, a, b, xtol):
    """A zero of f between a and b: bound_states._brent_steps driven by f alone."""
    steps = bound_states._brent_steps(a, b, xtol)
    x = next(steps)
    try:
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


@pytest.mark.parametrize("case", BRENT_CASES)
def test_brent_matches_scipy_step_for_step(case):
    # the same root and the same evaluated points, bit for bit, as the
    # reference implementation, at a loose and the search's tight tolerance
    f, a, b = BRENT_CASES[case]
    for xtol in (1e-6, 1e-13):
        root, points = evaluated(package_brent, f, a, b, xtol)
        ref, ref_points = evaluated(scipy_brentq, f, a, b, xtol)
        assert isinstance(ref, float)
        assert root == ref
        assert points == ref_points
        assert len(points) > 2 or f(root) == 0.0


def test_brent_refuses_what_scipy_fails_on():
    # 100 bisections cannot shrink [-1, 2] to 1e-300 about the step at 0:
    # scipy raises RuntimeError after the same 102 evaluations; a NaN or an
    # infinity, at an end or inside, is refused at once, and so are ends of
    # one sign (ValueError in scipy)
    def step(x):
        return 1.0 if x > 0.0 else -1.0

    exc, points = evaluated(package_brent, step, -1.0, 2.0, 1e-300)
    ref, ref_points = evaluated(scipy_brentq, step, -1.0, 2.0, 1e-300)
    assert isinstance(exc, ConditioningError) and "100 steps" in str(exc)
    assert isinstance(ref, RuntimeError)
    assert points == ref_points and len(points) == 102
    for bad in (math.nan, math.inf):
        for f in (lambda x: bad if x > 1.5 else x - 1.0,
                  lambda x: bad if 0.2 < x < 1.0 else x - 0.5):
            exc, points = evaluated(package_brent, f, 0.0, 2.0, 1e-13)
            assert isinstance(exc, ConditioningError)
            assert f(points[-1]) is bad and all(f(x) is not bad for x in points[:-1])
    exc, points = evaluated(package_brent, lambda x: x + 1.0, 0.0, 1.0, 1e-13)
    assert isinstance(exc, ConditioningError) and points == [0.0, 1.0]


def both_gaps(params):
    bs = band_structure(params)
    assert len(bs.gaps) == 2
    return bs


def contact(E, p):
    """The contact matrix S(E) of the bound-state finder."""
    return contact_elimination(E, find_channel_roots(E, p), p)[1][:2, :2]


def test_contact_matrix_shape():
    # the matching system reduces to a 2x2 matrix on the contact slots
    p = ModelParams(xi=-0.2)
    state = find_bound_states(p, both_gaps(p).gaps[0])[0]
    for E in (1.0, state.energy):
        s = contact(E, p)
        assert s.shape == (2, 2)
        assert s.dtype == complex
    assert 0.0 <= state.sigma_min < 1e-9


def test_in_band_energy_rejected():
    # a "gap" laid inside a band has open channels at its ends
    p = ModelParams(xi=-0.2)
    for lo, hi in ((0.05, 0.15), (1.95, 2.05)):   # mixed, photon-pair band
        with pytest.raises(ParameterError):
            find_bound_states(p, Gap(index=1, lo=lo, hi=hi, below=(), above=()))


def test_frozen_energies():
    for (xi, delta, K), expect in E_BOUND.items():
        p = ModelParams(xi=xi, delta=delta, K=K)
        bs = both_gaps(p)
        for gap in bs.gaps:
            states = find_bound_states(p, gap)
            assert len(states) == 1
            assert abs(states[0].energy - expect[gap.index]) < 1e-10
            assert states[0].gap is gap


def test_sigma_contrast():
    # one eigenvalue of S vanishes at the bound energy and is order unity
    # away from it; sigma_min, the smallest |eigenvalue|, collapses there
    p = ModelParams(xi=-0.2)
    bs = both_gaps(p)
    state = find_bound_states(p, bs.gaps[0])[0]
    assert state.sigma_min < 1e-9
    at = np.abs(np.linalg.eigvalsh(contact(state.energy, p)))
    assert at.min() / at.max() < 1e-9
    away = np.abs(np.linalg.eigvalsh(contact(state.energy + 0.2, p)))
    assert away.min() / away.max() > 1e-2
    assert away.min() > 1e-2 * p.g


def test_contact_matrix_nondegenerate_nullspace():
    # exactly one eigenvalue of S vanishes at the bound energy
    p = ModelParams(xi=-0.2)
    bs = both_gaps(p)
    state = find_bound_states(p, bs.gaps[0])[0]
    eigs = np.sort(np.abs(np.linalg.eigvalsh(contact(state.energy, p))))
    assert eigs[0] < 1e-9 * eigs[1]
    assert eigs[1] > 1e-2 * p.g


@pytest.mark.parametrize("xi, delta, K", METHOD_POINTS)
def test_contact_matrix_inertia(xi, delta, K):
    # S is Hermitian and its eigenvalues fall strictly across each gap, so
    # the change in its negative count between the gap ends is the number
    # of states, and the finder certifies exactly that many
    p = ModelParams(xi=xi, delta=delta, K=K)
    for gap in both_gaps(p).gaps:
        mats = [contact(E, p)
                for E in np.linspace(gap.lo + 1e-6, gap.hi - 1e-6, 40)]
        for s in mats:
            assert np.abs(s - s.conj().T).max() < 1e-12
        eigs = np.array([np.linalg.eigvalsh(s) for s in mats])
        assert (np.diff(eigs, axis=0) < 0.0).all()
        count = int((eigs[-1] < 0.0).sum() - (eigs[0] < 0.0).sum())
        assert count == len(find_bound_states(p, gap)) == 1


def test_closed_form_contact_eigenvalues():
    # the inertia count and Brent read S's eigenvalues in closed form; both
    # must equal eigh's, ascending, to 4 eps ||S||: on S(E) at the method
    # points and on a diagonal, an exactly degenerate, a 1e-300 off-diagonal
    # and a 1e8-scaled matrix
    eps = np.finfo(float).eps
    cases = [np.diag([-0.3, 2.0]), np.diag([1.5, 1.5]).astype(complex),
             np.array([[0.7, 1e-300 - 2e-300j], [1e-300 + 2e-300j, -0.2]]),
             1e8 * np.array([[1.0, 0.3 - 0.4j], [0.3 + 0.4j, -2.0]])]
    for xi, delta, K in METHOD_POINTS:
        p = ModelParams(xi=xi, delta=delta, K=K)
        for gap in both_gaps(p).gaps:
            cases += [contact(E, p) for E in np.linspace(gap.lo + 1e-6, gap.hi - 1e-6, 10)]
    for s in cases:
        want = np.linalg.eigh(s)[0]
        got = bound_states._eigvalsh2(s)
        assert got[0] <= got[1]
        assert np.abs(np.array(got) - want).max() <= 4.0 * eps * np.abs(want).max()


def test_gap_edge_at_twice_detuning():
    # at (xi, delta) = (-0.5, -1) the upper edge of gap 1 is the mixed-band
    # edge delta + 2 xi = 2 delta, where the third channel's decay rate
    # diverges; the finder evaluates S at 2 delta - 1e-6
    p = ModelParams(xi=-0.5, delta=-1.0)
    gap = band_structure(p).gaps[0]
    assert gap.index == 1
    assert abs(gap.hi - 2.0 * p.delta) < 1e-12
    states = find_bound_states(p, gap)
    assert len(states) == 1
    assert abs(states[0].energy - -2.260754843836) < 1e-10


@pytest.mark.parametrize("xi, delta", [(-0.2, -1.042), (-0.5, -1.273)])
def test_near_twice_detuning_certifies(xi, delta):
    # 2 delta lies in gap 2, and energies near it, where the third channel
    # decays almost at once, must pass the channel-root certificate
    p = ModelParams(xi=xi, delta=delta)
    for gap in both_gaps(p).gaps:
        states = find_bound_states(p, gap)
        assert len(states) == 1
        assert states[0].residual_max < 1e-8


def test_certificates(monkeypatch):
    # a state reported 1e-6 away from its energy keeps its wavefunction, so
    # the Rayleigh quotient of that wavefunction must expose the shift
    def shifted(params, gap):
        return [dataclasses.replace(st, energy=st.energy + 1e-6)
                for st in find_bound_states(params, gap)]

    monkeypatch.setattr(validation, "find_bound_states", shifted)
    assert not run_checks(["bound-certificates"])[0].passed


def test_certificates_spectral_flow(monkeypatch):
    # halving the expansion moments drops the mirror's factor 2 from the
    # norm, so |b_0| comes out too large; the spectral-flow clause must see
    # it without the Rayleigh quotient's help, and the check must not crash
    moment = bound_states.expansion_moment
    monkeypatch.setattr(bound_states, "expansion_moment",
                        lambda *args: 0.5 * moment(*args))
    for blind in (False, True):
        if blind:
            monkeypatch.setattr(validation, "rayleigh_quotient", lambda st: st.energy)
        (result,) = run_checks(["bound-certificates"])
        assert not result.passed
        assert "raised" not in result.detail and "6 states" in result.detail


def test_residual_failure_is_refused(monkeypatch):
    # a state the inertia count found but whose wavefunction fails the
    # site-residual certificate is refused, not dropped from the inventory
    window = bound_states.certificate_window

    def inflated(*args):
        field, residual = window(*args)
        return field, residual + 1e-6

    p = ModelParams(xi=-0.2, delta=-2.0)
    monkeypatch.setattr(bound_states, "certificate_window", inflated)
    for gap in both_gaps(p).gaps:
        with pytest.raises(ConditioningError, match="site residual .* not below 1e-08"):
            find_bound_states(p, gap)


def test_gap_contact(monkeypatch, overcount):
    # the check must catch a closed momentum paired with another root's
    # spinor in the search's channel solve (through S), a state built from
    # its energy's record left ungauged (through the state's spinors), one
    # whose W is 1e-11 off, far inside the site-residual bound (through its
    # amplitudes against a fresh solve), and one whose gauged spinors keep W
    # with its gauge factors dropped or applied the wrong way round (through
    # the state's site residual)
    solve, gauged = channels._closed_channels, channels._ClosedChannels.gauged

    def mispaired(E, params):
        closed = solve(E, params)
        return closed._replace(vectors=closed.vectors[:, [2, 1, 0]])

    def ungauged(closed, w):
        return dataclasses.replace(gauged(closed, w)[0], vectors=closed.vectors), w

    def factors(closed):
        vectors = gauged(closed, np.eye(3))[0].vectors
        return (vectors * np.conj(closed.vectors)).sum(axis=0)

    def skewed(closed, w):
        roots, w = gauged(closed, w)
        return roots, w * (1.0 + 1e-11)

    def dropped(closed, w):
        return gauged(closed, w)[0], w

    def inverted(closed, w):
        return gauged(closed, w)[0], w * factors(closed)[:, None]

    for module, name, fault in ((validation, "_closed_channels", mispaired),
                                (channels._ClosedChannels, "gauged", ungauged),
                                (channels._ClosedChannels, "gauged", skewed)):
        with monkeypatch.context() as m:
            m.setattr(module, name, fault)
            (result,) = run_checks(["gap-contact"])
        assert not result.passed
        assert "raised" not in result.detail
    for fault in (dropped, inverted):
        with monkeypatch.context() as m:
            m.setattr(channels._ClosedChannels, "gauged", fault)
            (result,) = run_checks(["gap-contact"])
        assert not result.passed
        assert "has site residual" in result.detail
    # a closed lam 1e-6 off leaves S and the spinors as they were, so only
    # the check's own determinant batch can see it
    with monkeypatch.context() as m:
        m.setattr(validation, "_closed_channels",
                  lambda E, params: solve(E, params)._replace(
                      lam=solve(E, params).lam + [0.0, 1e-6, 0.0]))
        (result,) = run_checks(["gap-contact"])
    assert not result.passed
    assert "fails the determinant condition" in result.detail
    # an inertia count one above the certified count
    with monkeypatch.context() as m:
        m.setattr(validation, "_gap_counts", overcount)
        (result,) = run_checks(["gap-contact"])
    assert not result.passed
    assert result.detail.startswith("inertia count 2 but 1 certified states")


def assert_chain_sums(st):
    # stored weights and Rayleigh quotient against explicit site sums over
    # |l| <= 40/kappa; exchange double counting: l = 0 enters once, |l| > 0
    # twice, and the stored normalization makes the total weight unity
    n = int(np.ceil(40.0 / st.decay_rate))
    psi = st.wavefunction(np.arange(-n, n + 1))
    comp = np.sum(np.abs(psi) ** 2, axis=0)
    summed = (comp[0], comp[1] + comp[2], comp[3])
    assert np.abs(np.array(st.weights) - summed).max() < 1e-10
    assert abs(comp.sum() - 1.0) < 1e-10
    assert abs(sum(st.weights) - 1.0) < 1e-10
    assert all(w >= 0.0 for w in st.weights)
    assert abs(rayleigh_quotient(st) - st.energy) < 1e-10


def test_normalization_and_weights():
    # two deep states at delta = -2, plus the gap-1 edge states at
    # delta = -10 (kappa 2.7e-3 and 1.0e-3) whose tails reach 10^4 sites
    p = ModelParams(xi=-0.2, delta=-2.0)
    states = [find_bound_states(p, gap)[0] for gap in both_gaps(p).gaps]
    for xi in (-0.2, -0.75):
        p = ModelParams(xi=xi, delta=-10.0)
        states.append(find_bound_states(p, both_gaps(p).gaps[0])[0])
    assert min(st.decay_rate for st in states) < 1.1e-3
    for st in states:
        assert_chain_sums(st)


def test_chain_sums_at_nonzero_momentum():
    # off K = 0 the hopping blocks differ (hp != hm) and the closed-channel
    # spinors are complex, which the K = 0 states above cannot probe
    p = ModelParams(xi=-0.3, delta=-1.0, K=0.7)
    st = find_bound_states(p, band_structure(p).gaps[0])[0]
    assert st.residual_max < 1e-8
    assert_chain_sums(st)


class Counted(NamedTuple):
    states: list        # find_bound_states(p, gap)
    seen: list          # energies of its closed-channel solves, in order
    rooted: list        # energies of every root solve (channels._channel_roots)
    eliminated: list    # energies of every contact_elimination, a stack's in order
    checked: list       # energies of each _check_determinant call's roots, per call
    inside: list        # (root solves, eliminations, checks) of each _certify call


def counted_search(monkeypatch, p, gap) -> Counted:
    """find_bound_states(p, gap) with the work it does, counted (Counted)."""
    seen, rooted, eliminated, checked, inside = [], [], [], [], []
    closed, roots = bound_states._closed_channels, channels._channel_roots
    eliminate, check, certify = (bound_states.contact_elimination, channels._check_determinant,
                                 bound_states._certify)

    def counting(E, params):
        seen.append(float(E))
        return closed(E, params)

    def counting_roots(E, params):
        rooted.append(float(E))
        return roots(E, params)

    def counting_elimination(E, *args):
        eliminated.extend(np.ravel(E).tolist())
        return eliminate(E, *args)

    def counting_check(E, mats, lam):
        checked.append(np.broadcast_to(np.reshape(E, -1), lam.shape).tolist())
        return check(E, mats, lam)

    def counting_certify(*args):
        before = len(rooted), len(eliminated), len(checked)
        state = certify(*args)
        inside.append(tuple(len(x) - n for x, n in zip((rooted, eliminated, checked), before)))
        return state

    monkeypatch.setattr(bound_states, "_closed_channels", counting)
    monkeypatch.setattr(channels, "_channel_roots", counting_roots)
    monkeypatch.setattr(bound_states, "contact_elimination", counting_elimination)
    monkeypatch.setattr(bound_states, "_check_determinant", counting_check)
    monkeypatch.setattr(channels, "_check_determinant", counting_check)
    monkeypatch.setattr(bound_states, "_certify", counting_certify)
    states = find_bound_states(p, gap)
    monkeypatch.undo()
    return Counted(states, seen, rooted, eliminated, checked, inside)


def inset_ends(p, gap):
    tol_edge = bound_states.TOL_EDGE_FACTOR * p.g
    return gap.lo + tol_edge, gap.hi - tol_edge


def test_refinement_evaluates_each_energy_once(monkeypatch):
    # every energy costs one root solve and one contact elimination; the
    # inertia count, Brent's iterations and the certificate of the accepted
    # energy must not repeat one.  Brent starts from s = 0 and 1, which map
    # to the inset gap ends exactly, so its first two evaluations are the
    # inertia count's, and it never leaves the gap.  The accepted energy is
    # one Brent has evaluated, and its state is built from that energy's
    # record: _certify solves, eliminates and checks nothing.  The
    # determinant check runs once, over the three roots of every searched
    # energy, in order
    p = ModelParams(xi=-0.2, delta=-2.0)
    for gap in both_gaps(p).gaps:
        run = counted_search(monkeypatch, p, gap)
        seen = run.seen
        assert len(run.states) == 1
        lo, hi = inset_ends(p, gap)
        assert seen[:2] == [lo, hi]
        assert all(lo <= E <= hi for E in seen)
        assert len(seen) == len(set(seen))
        assert run.states[0].energy in seen
        assert run.rooted == seen
        assert run.eliminated == seen
        assert run.checked == [np.repeat(seen, 3).tolist()]
        assert run.inside == [(0, 0, 0)]


def assert_own_determinant_error(monkeypatch, p, gap, target):
    # a closed lam 1e-6 off, or NaN, at the energy target alone: the search
    # raises the ConditioningError of target's own determinant check, naming
    # its root.  A NaN root also breaks the elimination there (gesdd refuses
    # M_1) and so the search.  Off K = 0, where no root is double, the shift
    # fails the check
    solve, mats = bound_states._closed_channels, bloch_matrices(p)

    def shifted(closed):
        lam = closed.lam.copy()
        lam[1] += 1e-6
        return closed._replace(lam=lam)

    def nan_root(closed):
        lam = closed.lam.copy()
        lam[1] = np.nan
        return closed._replace(lam=lam, z=np.exp(1j * lam))

    with pytest.raises(ConditioningError, match="on channel block M_1"):
        contact_elimination(target, nan_root(solve(target, p)), p)
    for fault in (shifted, nan_root):
        with pytest.raises(ConditioningError, match="fails the determinant condition") as own:
            channels._check_determinant(target, mats, fault(solve(target, p)).lam)
        with monkeypatch.context() as m:
            m.setattr(bound_states, "_closed_channels",
                      lambda E, params: fault(solve(E, params)) if E == target else solve(E, params))
            with pytest.raises(ConditioningError) as searched:
                find_bound_states(p, gap)
        assert str(searched.value) == str(own.value)


def test_determinant_fault_at_interior_energy(monkeypatch):
    # the search certifies its roots in one batch, yet a wrong root at one
    # interior Brent energy raises that energy's own determinant error
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi / 2)
    gap = both_gaps(p).gaps[0]
    run = counted_search(monkeypatch, p, gap)
    target = run.seen[4]
    assert target not in inset_ends(p, gap) and target != run.states[0].energy
    assert_own_determinant_error(monkeypatch, p, gap, target)


def test_determinant_fault_at_accepted_energy(monkeypatch):
    # _certify runs no check of its own: the search's one batch covers the
    # accepted energy, so a wrong root there alone raises its own error
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi / 2)
    gap = both_gaps(p).gaps[0]
    run = counted_search(monkeypatch, p, gap)
    target = run.states[0].energy
    assert target not in inset_ends(p, gap) and run.seen.count(target) == 1
    assert_own_determinant_error(monkeypatch, p, gap, target)


def test_determinant_fault_at_double_root(monkeypatch):
    # at K = 0, det(M(lam) - E) = D1^2 (D0 D3 - 4 g^2) vanishes quadratically
    # at the double root D1 = 0: a 1e-6 shift of either of its members leaves
    # |det| far inside its bound, and only the factor clause refuses it, at
    # one interior Brent energy of the batched search (with that energy's own
    # message) and in find_channel_roots
    p = ModelParams(xi=-0.2, delta=-2.0, K=0.0)
    gap = both_gaps(p).gaps[0]
    run = counted_search(monkeypatch, p, gap)
    target = run.seen[4]
    assert target not in inset_ends(p, gap) and target != run.states[0].energy
    solve, roots, mats = bound_states._closed_channels, channels._channel_roots, bloch_matrices(p)
    lam = solve(target, p).lam
    double = [j for j in range(3) if (lam == lam[j]).sum() == 2]
    assert len(double) == 2
    for j in double:
        def shifted(closed):
            moved = closed.lam.copy()
            moved[j] += 1e-6
            return closed._replace(lam=moved)

        def shifted_roots(E, params):
            found = roots(E, params)
            closed = list(found[2])
            closed[j] += 1e-6
            return (*found[:2], closed, found[3])

        vals, scales, _ = channels._det_certificate(target, mats, shifted(solve(target, p)).lam)
        assert vals[j] < 1e-3 * 1e-9 * scales[j]
        with pytest.raises(ConditioningError, match="neither D1 nor D0 D3") as own:
            channels._check_determinant(target, mats, shifted(solve(target, p)).lam)
        with monkeypatch.context() as m:
            m.setattr(bound_states, "_closed_channels",
                      lambda E, params: shifted(solve(E, params)) if E == target else solve(E, params))
            with pytest.raises(ConditioningError) as searched:
                find_bound_states(p, gap)
        assert str(searched.value) == str(own.value)
        with monkeypatch.context() as m:
            m.setattr(channels, "_channel_roots", shifted_roots)
            with pytest.raises(ConditioningError, match="neither D1 nor D0 D3"):
                find_channel_roots(target, p)


def bits(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("xi, delta, K", [(-0.2, -2.0, 0.0), (-0.2, -2.0, np.pi / 2),
                                          (-5e-4, -1.0, 0.7)])
def test_stacked_evaluation_is_per_energy_bit_for_bit(xi, delta, K):
    # the lockstep search eliminates the closed channels of a stack of
    # energies, one lane per gap, in one contact_elimination: each lane's W,
    # C and S eigenvalues must be its energy's alone, bit for bit, in stacks
    # of 1, 2, 4 and 8 that mix both gaps (K = 0 has a double closed root)
    p = ModelParams(xi=xi, delta=delta, K=K)
    gaps = both_gaps(p).gaps
    energies = [float(E) for pair in zip(*(np.linspace(*inset_ends(p, gap), 4) for gap in gaps))
                for E in pair]
    closed = [bound_states._closed_channels(E, p) for E in energies]
    alone = [contact_elimination(E, c, p) for E, c in zip(energies, closed)]
    for n in (1, 2, 4, 8):
        w, c, _ = contact_elimination(np.array(energies[:n])[:, None, None],
                                      channels._ClosedChannels.stack(closed[:n]), p)
        assert [(x.tobytes(), y.tobytes()) for x, y in zip(w, c)] == [
            (x.tobytes(), y.tobytes()) for x, y, _ in alone[:n]]
        lanes = [bound_states._Lane(p, gaps[j % 2]) for j in range(n)]
        bound_states._evaluate(p, list(zip(lanes, energies)))
        assert [bits(lane.eigs[E]) for lane, E in zip(lanes, energies)] == [
            bits(bound_states._eigvalsh2(y[:2, :2].tolist())) for _, y, _ in alone[:n]]


def test_stacked_refusal_quotes_its_lanes_energy():
    # M_1 singular in the third lane of a stack of four: the refusal names
    # that lane's energy, as the elimination of that energy alone does
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi / 2)
    energies = [float(E) for E in np.linspace(*inset_ends(p, both_gaps(p).gaps[0]), 4)]
    closed = [bound_states._closed_channels(E, p) for E in energies]
    vectors, z = closed[2].vectors.copy(), closed[2].z.copy()
    vectors[:, 1], z[1] = vectors[:, 0], z[0]
    closed[2] = closed[2]._replace(vectors=vectors, z=z)
    with pytest.raises(ConditioningError) as alone:
        contact_elimination(energies[2], closed[2], p)
    with pytest.raises(ConditioningError) as stacked:
        contact_elimination(np.array(energies)[:, None, None],
                            channels._ClosedChannels.stack(closed), p)
    assert f"channel block M_1 at E = {energies[2]} is singular" in str(alone.value)
    assert str(stacked.value) == str(alone.value)


def state_bits(states):
    return [validation._state_bits(st) for st in states]


@pytest.mark.parametrize("where", ["upper end", "Brent energy"])
def test_lane_refusal_skips_its_gap_only(monkeypatch, where):
    # a ParameterError from gap 1's channel solve, at its upper inset end (in
    # the stack of both gaps' ends) or at an interior energy of its Brent
    # search (in a round with gap 2's): the sweep skips gap 1 with that
    # message, as a search of gap 1 alone refuses it, and gap 2, searched on,
    # keeps the states of a search of gap 2 alone, bit for bit
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi / 2)
    gap1, gap2 = both_gaps(p).gaps
    with monkeypatch.context() as m:
        seen = counted_search(m, p, gap1).seen
    want, (_, hi) = find_bound_states(p, gap2), inset_ends(p, gap1)
    target = hi if where == "upper end" else seen[4]     # seen[:2] are the ends
    solve = bound_states._closed_channels

    def refused(E, params):
        if E == target:
            raise ParameterError(f"planted refusal at E = {E}")
        return solve(E, params)

    monkeypatch.setattr(bound_states, "_closed_channels", refused)
    with pytest.raises(ParameterError, match="planted refusal"):
        find_bound_states(p, gap1)
    (pt,) = bound_sweep(p.xi, [p.delta], K=p.K, jobs=1)
    assert pt.skipped == ((1, f"planted refusal at E = {target}"),)
    assert pt.gaps == (gap2,) and state_bits(pt.states[0]) == state_bits(want)


def test_each_lane_keeps_its_own_error(monkeypatch):
    # a pole of S in gap 1 (S = 1 at its upper inset end, so its count of
    # negative eigenvalues drops across the gap) and a closed root 1e-6 off
    # at gap 2's lower inset end: the one determinant check of the point
    # fails on gap 2's root, yet gap 1 keeps its pole error, which the sweep
    # raises, as a search of gap 1 alone does; gap 2's lane raises its
    # root's determinant error
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi / 2)
    gap1, gap2 = both_gaps(p).gaps
    hi1, lo2 = inset_ends(p, gap1)[1], inset_ends(p, gap2)[0]
    eliminate, solve = bound_states.contact_elimination, bound_states._closed_channels

    def pole(E, roots, params):
        w, c, r = eliminate(E, roots, params)
        c = c.copy()
        c.reshape(-1, 4, 4)[np.ravel(E) == hi1, :2, :2] = np.eye(2)
        return w, c, r

    def shifted(E, params):
        closed = solve(E, params)
        return closed._replace(lam=closed.lam + [0.0, 1e-6, 0.0]) if E == lo2 else closed

    monkeypatch.setattr(bound_states, "contact_elimination", pole)
    monkeypatch.setattr(bound_states, "_closed_channels", shifted)
    with pytest.raises(ConditioningError) as own:
        find_bound_states(p, gap1)
    assert "a pole inside the gap spoils the count" in str(own.value)
    with pytest.raises(ConditioningError) as point:
        bound_sweep(p.xi, [p.delta], K=p.K, jobs=1)
    assert str(point.value) == str(own.value)
    first, second = bound_states.search_gaps(p, (gap1, gap2))
    with pytest.raises(ConditioningError, match="fails the determinant condition"):
        second()
    with pytest.raises(ConditioningError, match="a pole inside the gap"):
        first()


def test_determinant_fault_in_one_lane(monkeypatch):
    # a closed root 1e-6 off at one interior Brent energy of gap 1, searched
    # in lockstep with gap 2: the point raises that energy's own
    # determinant error, naming its root, and gap 2's lane is untouched
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi / 2)
    gap1, gap2 = both_gaps(p).gaps
    run = counted_search(monkeypatch, p, gap1)
    target, want = run.seen[4], find_bound_states(p, gap2)
    assert target not in inset_ends(p, gap1) and target != run.states[0].energy
    solve = bound_states._closed_channels

    def shifted(closed):
        lam = closed.lam.copy()
        lam[1] += 1e-6
        return closed._replace(lam=lam)

    with pytest.raises(ConditioningError, match="fails the determinant condition") as own:
        channels._check_determinant(target, bloch_matrices(p), shifted(solve(target, p)).lam)
    monkeypatch.setattr(bound_states, "_closed_channels",
                        lambda E, params: shifted(solve(E, params)) if E == target
                        else solve(E, params))
    with pytest.raises(ConditioningError) as point:
        bound_sweep(p.xi, [p.delta], K=p.K, jobs=1)
    assert str(point.value) == str(own.value)
    first, second = bound_states.search_gaps(p, (gap1, gap2))
    assert state_bits(second()) == state_bits(want)


@pytest.mark.parametrize("K", [0.0, np.pi / 2])
def test_root_finds_per_state(monkeypatch, K):
    # Brent in the Chebyshev gap variable, where the edge square root of
    # S's eigenvalues is linear, takes 7 + 9 root solves for the two states
    # of these gaps at K = 0 and 8 + 9 at K = pi/2, inertia ends included;
    # Brent in E took 9.5 per state.  Each is its energy's only solve: the
    # states are certified from the search's records
    solves = {0.0: [7, 9], np.pi / 2: [8, 9]}[K]
    p = ModelParams(xi=-0.2, delta=-2.0, K=K)
    runs = [counted_search(monkeypatch, p, gap) for gap in both_gaps(p).gaps]
    assert [len(run.states) for run in runs] == [1, 1]
    assert [len(run.rooted) for run in runs] == solves
    assert all(run.rooted == run.seen and run.inside == [(0, 0, 0)] for run in runs)


@pytest.mark.parametrize("xi, delta, index", [(-0.2, -4.0, 1), (-0.2, 5.0, 2)])
def test_shallow_state_matches_bisection(xi, delta, index):
    # a state with decay rate below 0.05 sits within 6e-4 of a gap edge (the
    # upper edge of gap 1 at delta = -4, the lower edge of gap 2 at delta =
    # 5); plain bisection on the same eigenvalue of S(E) must agree
    p = ModelParams(xi=xi, delta=delta)
    gap = next(g for g in both_gaps(p).gaps if g.index == index)
    (state,) = find_bound_states(p, gap)
    assert state.decay_rate < 0.05
    assert min(state.energy - gap.lo, gap.hi - state.energy) < 6e-4
    lo, hi = inset_ends(p, gap)
    k = int((np.linalg.eigvalsh(contact(lo, p)) < 0.0).sum())
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if np.linalg.eigvalsh(contact(mid, p))[k] > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(state.energy - lo) < 1e-12


def test_wavefunction_parity_and_decay():
    p = ModelParams(xi=-0.2)
    bs = both_gaps(p)
    st = find_bound_states(p, bs.gaps[0])[0]
    ls = np.arange(1, 30)
    right = st.wavefunction(ls)
    left = st.wavefunction(-ls)
    for i in range(len(ls)):
        assert np.linalg.norm(left[i] - PARITY @ right[i]) < 1e-12
    norms = np.linalg.norm(right, axis=1)
    kappa = st.decay_rate
    assert kappa > 0.0
    # asymptotic decay at the slowest rate
    ratio = norms[25] / norms[15]
    assert abs(np.log(ratio) / 10.0 + kappa) < 1e-3


def test_site_equation_residual():
    from twopolaritons.model import bloch_matrices, contact_interaction, hop_blocks

    p = ModelParams(xi=-0.2, delta=-2.0)
    bs = both_gaps(p)
    st = find_bound_states(p, bs.gaps[1])[0]
    hp, hm = hop_blocks(p)
    onsite = bloch_matrices(p).onsite
    v = contact_interaction(p)
    for l in range(-20, 21):
        b = st.wavefunction(np.array([l - 1, l, l + 1]))
        resid = onsite @ b[1] + hp @ b[0] + hm @ b[2] - st.energy * b[1]
        if l == 0:
            resid += v @ b[1]
        assert np.linalg.norm(resid) < 1e-10


def test_detuning_mirror():
    # delta -> -delta together with q -> pi - q maps the spectrum to its
    # negative, exchanging the two gaps while leaving each state's
    # composition weights unchanged (the map only flips amplitude signs)
    p_up = ModelParams(xi=-0.2, delta=2.0)
    p_dn = ModelParams(xi=-0.2, delta=-2.0)
    up = [find_bound_states(p_up, g)[0] for g in band_structure(p_up).gaps]
    dn = [find_bound_states(p_dn, g)[0] for g in band_structure(p_dn).gaps]
    assert abs(up[0].energy + dn[1].energy) < 1e-9
    assert abs(up[1].energy + dn[0].energy) < 1e-9
    for a, b in zip(up[0].weights, dn[1].weights):
        assert abs(a - b) < 1e-6
    for a, b in zip(up[1].weights, dn[0].weights):
        assert abs(a - b) < 1e-6


def test_deep_detuning_composition():
    p = ModelParams(xi=-0.2, delta=-10.0)
    bs = both_gaps(p)
    for gap in bs.gaps:
        e_expect, w_expect = DEEP[gap.index]
        st = find_bound_states(p, gap)[0]
        assert abs(st.energy - e_expect) < 1e-9
        for got, want in zip(st.weights, w_expect):
            assert abs(got - want) < 1e-5


def test_atomic_limit():
    # As hopping vanishes the pair levels approach the two-excitation
    # single-site doublet at delta = 0: E = +/- sqrt(2) g (error ~ xi^2).
    p = ModelParams(xi=-0.01)
    bs = both_gaps(p)
    energies = sorted(find_bound_states(p, g)[0].energy for g in bs.gaps)
    assert abs(energies[0] + np.sqrt(2.0)) < 1e-3
    assert abs(energies[1] - np.sqrt(2.0)) < 1e-3


def test_tolerance_override_plumbing(monkeypatch):
    p = ModelParams(xi=-0.2)
    bs = both_gaps(p)
    gap = bs.gaps[0]
    # an absurdly tight acceptance gate must reject the genuine state,
    # and say so rather than return an empty gap
    with monkeypatch.context() as m:
        m.setattr(bound_states, "SIGMA_ACCEPT", 1e-30)
        with pytest.raises(ConditioningError, match="not below"):
            find_bound_states(p, gap)
    # the default gate accepts it
    assert len(find_bound_states(p, gap)) == 1


def test_gap_object_required():
    p = ModelParams(xi=-0.2)
    bs = both_gaps(p)
    gap = bs.gaps[0]
    # narrowing the search window by shifting gap edges must not invent
    # states: a sub-window that excludes E_b comes back empty
    lowered = dataclasses.replace(gap, hi=gap.lo + 0.05 * (gap.hi - gap.lo))
    assert find_bound_states(p, lowered) == []


def test_bound_sweep_skips_zone_boundary():
    # at K = pi every gap is refused with a typed error; the sweep keeps
    # the point and records why its gaps were skipped
    (pt,) = bound_sweep(-0.2, [-2.0], K=np.pi, jobs=1)
    assert pt.gaps == () and pt.states == ()
    assert "zone boundary K = pi" in pt.note
    (ok,) = bound_sweep(-0.2, [-2.0], jobs=1)
    assert ok.note == "" and len(ok.gaps) == 2


@pytest.mark.parametrize("delta", [1e11, 1e15, -1e11, -1e15])
def test_bound_sweep_skips_gaps_whose_edge_inset_is_lost(delta):
    # from |E| of about 1e10 on, gap.lo + 1e-6 g rounds to gap.lo (or the
    # hi end likewise): each gap is skipped with a reason naming the lost
    # inset, not "lies inside a band" or "admits 0 outgoing waves"
    (pt,) = bound_sweep(-0.2, [delta], jobs=1)
    assert pt.gaps == () and [index for index, _ in pt.skipped] == [1, 2]
    for _, reason in pt.skipped:
        assert reason.startswith("the edge inset 1e-06 of gap [")
        assert reason.endswith("is lost to rounding at this energy scale")
    # where the inset survives, both gaps are searched as before
    (ok,) = bound_sweep(-0.2, [math.copysign(1e8, delta)], jobs=1)
    assert ok.note == "" and len(ok.gaps) == 2


@pytest.mark.parametrize("error", [ConditioningError, TwoPolaritonError])
def test_bound_sweep_propagates_solver_failures(monkeypatch, error):
    # a failure inside a gap (a pole of S, a degenerate null space, any
    # error but a refusal of the point) is not a refusal: dropping the gap
    # would report a wrong inventory, so the sweep raises
    def fail(gap):
        raise error(f"failed in gap {gap.index}")

    monkeypatch.setattr(sweeps, "search_gaps",
                        lambda params, gaps: [functools.partial(fail, gap) for gap in gaps])
    with pytest.raises(error, match="failed in gap 1"):
        bound_sweep(-0.2, [-2.0], jobs=1)
