"""In-gap two-polariton bound states: detection, certification, composition.

The certificates of the reference states are asserted by the validation
check bound-certificates; the test named after it here plants a fault and
requires the check to fail.
"""

import dataclasses

import numpy as np
import pytest

from twopolaritons import bound_states, sweeps, validation
from twopolaritons.bands import Gap, band_structure
from twopolaritons.bound_states import find_bound_states, rayleigh_quotient
from twopolaritons.channels import contact_elimination, find_channel_roots
from twopolaritons.errors import ConditioningError, ParameterError, TwoPolaritonError
from twopolaritons.model import PARITY, ModelParams
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


def counted_search(monkeypatch, p, gap):
    """find_bound_states(p, gap) and the energies of its root-finds, in order."""
    seen = []
    roots = bound_states.find_channel_roots

    def counting(E, params):
        seen.append(float(E))
        return roots(E, params)

    monkeypatch.setattr(bound_states, "find_channel_roots", counting)
    states = find_bound_states(p, gap)
    monkeypatch.undo()
    return states, seen


def inset_ends(p, gap):
    tol_edge = bound_states.TOL_EDGE_FACTOR * p.g
    return gap.lo + tol_edge, gap.hi - tol_edge


def test_refinement_evaluates_each_energy_once(monkeypatch):
    # every energy costs a root-find; the inertia count, Brent's iterations
    # and the certificate of the accepted energy must not repeat one.  Brent
    # starts from s = 0 and 1, which map to the inset gap ends exactly, so
    # its first two evaluations are the inertia count's, and it never
    # leaves the gap
    p = ModelParams(xi=-0.2, delta=-2.0)
    for gap in both_gaps(p).gaps:
        states, seen = counted_search(monkeypatch, p, gap)
        assert len(states) == 1
        lo, hi = inset_ends(p, gap)
        assert seen[:2] == [lo, hi]
        assert all(lo <= E <= hi for E in seen)
        assert len(seen) == len(set(seen))


@pytest.mark.parametrize("K", [0.0, np.pi / 2])
def test_root_finds_per_state(monkeypatch, K):
    # Brent in the Chebyshev gap variable, where the edge square root of
    # S's eigenvalues is linear, takes 8 root-finds per state on these
    # gaps (inertia ends and certificate included); Brent in E took 9.5
    p = ModelParams(xi=-0.2, delta=-2.0, K=K)
    counts = [counted_search(monkeypatch, p, gap) for gap in both_gaps(p).gaps]
    n_states = sum(len(states) for states, _ in counts)
    assert n_states == 2
    assert sum(len(seen) for _, seen in counts) / n_states <= 8.5


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


@pytest.mark.parametrize("error", [ConditioningError, TwoPolaritonError])
def test_bound_sweep_propagates_solver_failures(monkeypatch, error):
    # a failure inside a gap (a pole of S, a degenerate null space, any
    # error but a refusal of the point) is not a refusal: dropping the gap
    # would report a wrong inventory, so the sweep raises
    def fail(params, gap):
        raise error(f"failed in gap {gap.index}")

    monkeypatch.setattr(sweeps, "find_bound_states", fail)
    with pytest.raises(error, match="failed in gap 1"):
        bound_sweep(-0.2, [-2.0], jobs=1)
