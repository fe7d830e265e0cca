"""Outgoing-channel roots of the site-equation determinant at fixed energy.

The root certificates over random draws are asserted by the validation
check channel-roots; the tests named after them here plant a fault of the
kind each guards and require the check to fail.
"""

import dataclasses
import pickle
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from twopolaritons import channels, validation
from twopolaritons.bands import BRANCHES, band_structure, branch_energy, branch_energy_derivative
from twopolaritons.channels import channel_expansion, expansion_moment, find_channel_roots
from twopolaritons.errors import (ConditioningError, DegenerateParametersError, ParameterError,
                                  TwoPolaritonError)
from twopolaritons.model import PARITY, ModelParams, bloch_matrices, bloch_matrix
from twopolaritons.scattering import solve_scattering
from twopolaritons.validation import run_checks

RNG = np.random.default_rng(37)


def random_params(rng):
    return ModelParams(
        xi=rng.uniform(-1.0, 1.0),
        delta=rng.uniform(-5.0, 5.0),
        K=rng.uniform(-2.0 * np.pi, 2.0 * np.pi),
    )


def test_polynomial_is_palindromic():
    # det(M(lam) - E) in the variable z = e^{i lam} has reflection-symmetric
    # coefficients, i.e. the determinant is even in lam for complex lam too:
    # roots come in (z, 1/z) pairs.
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = random_params(RNG)
        e = RNG.uniform(2 * p.delta - 6.0, 2 * p.delta + 6.0)
        for lam in rng.uniform(-np.pi, np.pi, 4) + 1j * rng.uniform(-1.0, 1.0, 4):
            plus = bloch_matrix(p, lam) - e * np.eye(4)
            minus = bloch_matrix(p, -lam) - e * np.eye(4)
            scale = float(np.prod(np.linalg.norm(plus, axis=1)))
            assert abs(np.linalg.det(plus) - np.linalg.det(minus)) < 1e-9 * max(1.0, scale)


def spinor_sigma_min(channels):
    # smallest singular value of the 4x3 matrix of the unit channel spinors
    return np.linalg.svd(channels.vectors, compute_uv=False)[-1]


def test_polynomial_degree_and_root_pairing():
    # the three channels and their inverses are all six roots of the
    # degree-6 polynomial z^3 det(M(z) - E): dividing it by prod_k (z - z_k)
    # leaves a constant; the three channel spinors are linearly independent
    rng = np.random.default_rng(13)
    count = 0
    for _ in range(30):
        p = random_params(RNG)
        e = RNG.uniform(2 * p.delta - 6.0, 2 * p.delta + 6.0)
        try:
            channels = find_channel_roots(e, p)
        except DegenerateParametersError:
            continue
        count += 1
        assert channels.lam.shape == (3,)
        assert spinor_sigma_min(channels) > 1e-3
        zk = np.exp(1j * np.concatenate((channels.lam, -channels.lam)))
        lams = rng.uniform(-np.pi, np.pi, 5) + 1j * rng.uniform(-0.5, 0.5, 5)
        ratios = [
            np.linalg.det(bloch_matrix(p, lam) - e * np.eye(4))
            * np.exp(3j * lam)
            / np.prod(np.exp(1j * lam) - zk)
            for lam in lams
        ]
        assert np.abs(np.array(ratios) - ratios[0]).max() < 1e-6 * abs(ratios[0])
    assert count > 20


def test_roots_satisfy_determinant(monkeypatch):
    # closed-root spinors off by 1e-11 leave the determinant untouched; the
    # check bounds their relative backward error by 1e-12
    def nudged(e, p):
        roots = find_channel_roots(e, p)
        return dataclasses.replace(roots, vectors=roots.vectors + 1e-11 * ~roots.is_open)

    monkeypatch.setattr(validation, "find_channel_roots", nudged)
    assert not run_checks(["channel-roots"])[0].passed


@pytest.mark.parametrize("fault", ["velocity", "reversed AA", "label"])
def test_open_channel_labels_and_velocities(monkeypatch, fault):
    # the open-channel clause of channel-roots: a group velocity 1e-5
    # relative off, or an AA wave sent back at -lam with its velocity (its
    # energy and spinor still match E), passes every other clause; every AB
    # labelled BA off K = 0 gives back the wrong energy
    def faulty(lam_abs, e, p, taken):
        br, lam, v = open_channel(lam_abs, e, p, taken)
        if fault == "velocity":
            return br, lam, v * (1.0 + 1e-5)
        if fault == "reversed AA":
            return (br, -lam, v) if br == "AA" else (br, lam, v)
        return ("BA" if br == "AB" and p.K else br), lam, v

    open_channel = channels._open_channel
    monkeypatch.setattr(channels, "_open_channel", faulty)
    result = run_checks(["channel-roots"])[0]
    assert not result.passed and "open channels" in result.detail


def test_always_three_channels(monkeypatch):
    # no draw may be skipped: a single refusal fails the check
    calls = []

    def refuse_once(e, p):
        calls.append(e)
        if len(calls) == 500:
            raise DegenerateParametersError("synthetic refusal")
        return find_channel_roots(e, p)

    monkeypatch.setattr(validation, "find_channel_roots", refuse_once)
    result = run_checks(["channel-roots"])[0]
    assert not result.passed and "synthetic refusal" in result.detail


def test_k0_roots_continue_off_zero_momentum():
    # At K=0 the mixed channels share a structural double root; slightly
    # off K=0 the split roots must approach it continuously.
    p0 = ModelParams(xi=-0.2, delta=0.4, K=0.0)
    p1 = ModelParams(xi=-0.2, delta=0.4, K=1e-7)
    for e in (1.1, -1.3, 2.6):
        r0, r1 = find_channel_roots(e, p0), find_channel_roots(e, p1)
        o0, o1 = (np.lexsort((r.lam.imag, r.lam.real)) for r in (r0, r1))
        assert np.abs(r0.lam[o0] - r1.lam[o1]).max() < 1e-5
        assert np.array_equal(r0.is_open[o0], r1.is_open[o1])


def test_open_pair_splits_off_zero_momentum():
    # in the AB/BA band just off K = 0 the double root splits into two
    # simple open roots whose energies differ from the other label's by
    # less than the labelling tolerance, down to rounding: each root keeps
    # its own label, both labels appear, and scattering stays certified
    for k in (1e-5, 1e-9, 1e-14):
        p = ModelParams(xi=-0.2, delta=0.1, K=k)
        for e in (0.05, 0.25):
            roots = find_channel_roots(e, p)
            assert sorted(roots.open_branches) == ["AB", "BA"], (k, e)
            assert spinor_sigma_min(roots) > 1e-3
        sol = solve_scattering("AB", 1.0, p)
        assert max(sol.residual_max, sol.current_max) < 1e-12, k


def test_open_closed_split_in_band_and_gap():
    p = ModelParams(xi=-0.2)
    bs = band_structure(p)
    # in-band energy away from E = 2*delta: AB and BA open, one closed mode
    channels = find_channel_roots(0.1, p)
    assert channels.is_open.sum() == 2
    assert sorted(channels.open_branches) == ["AB", "BA"]
    # mid AA band: one open channel
    e_aa = 0.5 * sum(bs.branch_edges["AA"])
    open_aa = find_channel_roots(e_aa, p)
    assert open_aa.is_open.sum() == 1 and open_aa.open_branches == ("AA",)
    # in a gap: all channels closed and decaying
    gap = bs.gaps[0]
    channels = find_channel_roots(0.5 * (gap.lo + gap.hi), p)
    assert not channels.is_open.any()
    assert (np.abs(channels.z) < 1.0).all()  # retained roots decay to the right
    assert (channels.lam.imag > 0.0).all()


def test_open_roots_are_real_momenta_on_branch():
    p = ModelParams(xi=-0.35, delta=0.9, K=0.7)
    e = branch_energy("AB", 1.2, p)
    channels = find_channel_roots(e, p)
    op = channels.is_open
    for lam, br in zip(channels.lam[op], channels.open_branches):
        assert abs(branch_energy(br, lam.real, p) - e) < 1e-8
    assert np.abs(channels.lam[op].imag).max() < 1e-10
    assert np.abs(np.abs(channels.z[op]) - 1.0).max() < 1e-10


def test_group_velocity_sign():
    # retained open roots carry flux away from the scatterer (v > 0), and
    # the stored velocity matches the branch dispersion derivative.
    from twopolaritons.bands import branch_energy_derivative

    p = ModelParams(xi=-0.2, delta=0.1)
    e = 0.05
    channels = find_channel_roots(e, p)
    op = channels.is_open
    assert (channels.group_velocity[op] > 0.0).all()
    expect = [branch_energy_derivative(br, lam.real, p)
              for br, lam in zip(channels.open_branches, channels.lam[op])]
    assert np.abs(channels.group_velocity[op] - np.abs(expect)).max(initial=0.0) < 1e-8


def eight_call_open_channel(lam_abs, E, params, taken):
    """The open-channel labeller as it was before it shared one evaluation of the
    dressed levels per sign of lam: a branch_energy call for each of the four branches
    at +lam_abs and at -lam_abs, and branch_energy_derivative for each match."""
    tol = 1e-8 * max(1.0, abs(E))
    floor = channels._VELOCITY_FLOOR * (params.g + abs(params.xi))
    kept = []
    for lam in (lam_abs, -lam_abs):
        for br in BRANCHES:
            miss = abs(branch_energy(br, lam, params) - E)
            if miss > tol:
                continue
            v = float(branch_energy_derivative(br, lam, params))
            if abs(v) <= floor:
                raise ConditioningError(
                    f"open channel {br} has vanishing group velocity at lam={lam:.6g}")
            if v > 0.0:
                kept.append((br in taken, miss, br, lam, v))
    if not kept:
        raise DegenerateParametersError(
            f"open root at |lam|={lam_abs:.6g} admits 0 outgoing waves, expected 1")
    return min(kept)[2:]


def labelled(labeller, lam_abs, E, params, taken):
    """(branch, lam, v) with the floats as hex, so -0.0 and 0.0 differ, or the
    refusal's type and message."""
    try:
        br, lam, v = labeller(lam_abs, E, params, taken)
    except TwoPolaritonError as exc:
        return type(exc), str(exc)
    return br, float(lam).hex(), float(v).hex()


def test_open_channel_matches_eight_call_labeller():
    # _open_channel must return what the eight-call labeller returns, bit for
    # bit, and refuse what it refuses with the same error and message.  Roots
    # of random energies (and of energies within 1e-9 of a band edge, where
    # |v| nears the floor) are labelled in find_channel_roots' order, each
    # root's taken set built from the earlier ones; at K = 0, +-2 pi and 1e-9
    # AB and BA tie at the double root and the taken set decides.  Crafted
    # roots at lam = 0 and pi (v = 0 for AA and BB) and energies off every
    # branch reach both refusals.
    rng = np.random.default_rng(34)
    kinds = {"draws": 0, "tie": 0, ConditioningError: 0, DegenerateParametersError: 0}
    for i in range(3600):
        k = (0.0, 2.0 * np.pi, -2.0 * np.pi, 1e-9, np.pi / 2,
             rng.uniform(-2.0 * np.pi, 2.0 * np.pi))[i % 6]
        p = ModelParams(xi=rng.uniform(-1.0, 1.0), delta=rng.uniform(-5.0, 5.0), K=k)
        if i // 6 % 3 == 2:
            lam_abs = (0.0, np.pi, rng.uniform(0.0, np.pi))[rng.integers(3)]
            e = float(branch_energy(BRANCHES[rng.integers(4)], lam_abs, p))
            e += (0.0, 1e-12, -1e-9, 1e-6)[rng.integers(4)] * max(1.0, abs(e))
            taken = {br for br in BRANCHES if rng.random() < 0.3}
            found = [(lam_abs, taken)]
        else:
            if i // 6 % 3 == 1:
                bands = band_structure(p).bands
                band = bands[rng.integers(len(bands))]
                e = (band.lo, band.hi)[rng.integers(2)] + rng.uniform(-1e-9, 1e-9)
            else:
                e = rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)
            try:
                _, open_abs, _, _ = channels._channel_roots(e, p)
            except TwoPolaritonError:
                continue
            found = [(lam_abs, None) for lam_abs in open_abs]
        kinds["draws"] += bool(found)
        earlier = set()
        for lam_abs, taken in found:
            taken = set(earlier) if taken is None else taken
            expect = labelled(eight_call_open_channel, lam_abs, e, p, taken)
            assert labelled(channels._open_channel, lam_abs, e, p, taken) == expect, (p, e)
            if isinstance(expect[0], type):
                kinds[expect[0]] += 1
                break
            kinds["tie"] += expect[0] == "BA" and "AB" in taken
            earlier.add(expect[0])
    assert kinds["draws"] >= 2000 and min(kinds.values()) > 0, kinds


def test_scale_invariance():
    # (xi, delta, E) -> s*(xi, delta, E) with g -> s*g leaves channels fixed
    p1 = ModelParams(xi=-0.3, delta=0.8, K=0.9, g=1.0)
    p2 = ModelParams(xi=-0.6, delta=1.6, K=0.9, g=2.0)
    r1 = find_channel_roots(1.3, p1)
    r2 = find_channel_roots(2.6, p2)
    assert r1.lam.shape == r2.lam.shape
    assert np.abs(r1.lam - r2.lam).max() < 1e-8
    assert r1.branch == r2.branch


def test_channel_count_error_at_degenerate_energy():
    # E = 2*delta makes the like-branch factor degenerate at K=0
    p = ModelParams(xi=-0.2, delta=0.4)
    with pytest.raises(DegenerateParametersError, match="twice the detuning"):
        find_channel_roots(0.8, p)


def test_zone_boundary_is_refused():
    # at K = pi, 2 xi cos(K/2) = 0: the photon pair does not hop, the
    # hopping block loses rank and the channel problem is refused, on every
    # call and not only while the parameters are new to the cache
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi)
    for _ in range(2):
        with pytest.raises(DegenerateParametersError, match="zone boundary"):
            find_channel_roots(-1.0, p)


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
def test_non_finite_energy_is_refused(energy):
    # refused as bad input before any arithmetic, so without a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="energy must be finite"):
            find_channel_roots(energy, ModelParams(xi=-0.2, delta=0.4))
    assert not caught


def test_cached_record_is_read_only():
    # the per-parameter record is shared by every caller: each of its
    # fields is a read-only array, but the flag double_root, a plain bool
    mats = bloch_matrices(ModelParams(xi=-0.3, delta=0.8, K=0.9))
    assert mats.double_root is False
    for field in dataclasses.fields(mats):
        if field.name == "double_root":
            continue
        array = getattr(mats, field.name)
        assert isinstance(array, np.ndarray), field.name
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mats.hp = mats.hm


def test_hopping_rank_matches_matrix_rank():
    # the zone-boundary refusal (a vanishing leading coefficient
    # 2 xi cos(K/2)) falls exactly where hm[:3, :3] loses rank by the SVD,
    # at K = +-pi, next to it, at xi = 0 and tiny |xi|; elsewhere the call
    # returns or raises another typed error, without a warning
    ks = [0.0, 0.7, 2.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0), np.pi - 1e-10, -3.0]
    xis = [0.0, 5e-324, 1e-300, 1e-17, 1e-8, -0.2, 0.5, -3.0]
    for k in ks:
        for xi in xis:
            p = ModelParams(xi=xi, K=k)
            mats = bloch_matrices(p)
            hm = 0.5 * (mats.hop_cos - 1j * mats.hop_sin)
            try:
                find_channel_roots(-1.0, p)
                refused = False
            except TwoPolaritonError as exc:
                refused = "zone boundary K = pi" in str(exc)
            assert refused == (np.linalg.matrix_rank(hm[:3, :3]) < 3), (k, xi)


def companion_pencil_roots(p, e):
    """The six channel eigenvalues of the 8x8 companion pencil, by scipy.linalg.eig.

    With x = (F, z F), (hp + (A - E) z + hm z^2) F = 0 reads
    [[0, I], [-hp, -(A - E)]] x = z [[I, 0], [0, hm]] x; the TLS pair does
    not hop, so one structural z = 0 and one z = inf are dropped.
    """
    mats = bloch_matrices(p)
    hp = 0.5 * (mats.hop_cos + 1j * mats.hop_sin)
    hm = 0.5 * (mats.hop_cos - 1j * mats.hop_sin)
    lhs = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros((8, 8), dtype=complex)
    lhs[:4, 4:] = rhs[:4, :4] = np.eye(4)
    lhs[4:, :4], lhs[4:, 4:], rhs[4:, 4:] = -hp, -(mats.onsite - e * np.eye(4)), hm
    (alpha, beta), _ = scipy.linalg.eig(lhs, rhs, homogeneous_eigvals=True)
    order = np.argsort(np.arctan2(np.abs(alpha), np.abs(beta)))[1:-1]
    return alpha[order] / beta[order]


def test_roots_match_companion_pencil():
    # the independent reference: the pencil's six channel eigenvalues are
    # the three channels' z and 1/z, paired one to one; the pencil splits
    # the K = 0 double root only by roundoff, about sqrt(eps)
    rng = np.random.default_rng(41)
    draws = [validation._draw_params(rng) for _ in range(200)]
    draws += [validation._draw_params(rng, k_zero=True) for _ in range(50)]
    checked = 0
    for p in draws:
        e = rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)
        try:
            z = find_channel_roots(e, p).z
        except TwoPolaritonError:
            continue
        checked += 1
        ours = np.concatenate((z, 1.0 / z))
        pencil = companion_pencil_roots(p, e)
        gap = np.abs(ours[:, None] - pencil[None, :]) / np.maximum(1.0, np.abs(ours))[:, None]
        rows, cols = scipy.optimize.linear_sum_assignment(gap)
        assert gap[rows, cols].max() < 1e-6, (p, e)
    assert checked > 240


@pytest.mark.parametrize("xi, K, delta, e", [(-1.2e-3, 0.7, 1.0, -4.0), (-1e-5, 0.7, 0.0, 3.0),
                                             (-1e-5, 0.7, 1.0, -4.0)])
def test_closed_spinors_hold_at_small_hopping(xi, K, delta, e):
    # as xi -> 0 the hopping blocks are tiny against A - E; the closed
    # spinors must still solve their Bloch equation to a backward error
    # of 1e-12, as the channel-roots check requires
    p = ModelParams(xi=xi, delta=delta, K=K)
    roots = find_channel_roots(e, p)
    assert not roots.is_open.any()
    for lam, vector in zip(roots.lam, roots.vectors.T):
        m = bloch_matrix(p, lam) - e * np.eye(4)
        assert np.linalg.norm(m @ vector) / np.linalg.norm(m) <= 1e-12


@pytest.mark.parametrize("k", [0.0, 1e-7, 0.7, np.pi / 2, -2.0 * np.pi])
def test_determinant_factorization(k):
    # det(M(lam) - E) = D1^2 (D0 D3 - 4 g^2) - t^2 D0 D3: the cubic's
    # coefficients and its factored form, at y = 2 xi cos(K/2) cos lam,
    # equal the 4x4 determinant at random complex lam, to 1e-13 of the
    # product of its row norms (the scale of LU's rounding)
    rng = np.random.default_rng(47)
    for _ in range(100):
        p = ModelParams(xi=rng.uniform(-1.0, 1.0), delta=rng.uniform(-5.0, 5.0), K=k,
                        g=rng.uniform(0.5, 2.0))
        e = rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)
        _, terms, (c3, b, c, d), det = channels._det_roots(e, bloch_matrices(p))
        a = terms[0]
        for lam in rng.uniform(-np.pi, np.pi, 4) + 1j * rng.uniform(-1.5, 1.5, 4):
            m = bloch_matrix(p, lam) - e * np.eye(4)
            want, scale = np.linalg.det(m), np.prod(np.linalg.norm(m, axis=1))
            y = a * np.cos(lam)
            for got in (c3 * (((y + b) * y + c) * y + d), det(y)[0]):
                assert abs(got - want) <= 1e-13 * scale, (p, e, lam)


@pytest.mark.parametrize("xi, delta", [(-0.5, -1.0), (-0.75, -1.5)])
def test_roots_certified_next_to_twice_detuning(xi, delta):
    # a gap edge sits exactly at 2 delta here; 1e-6 inside it the third
    # channel decays almost at once (|z| ~ 1e-6, |cos lam| ~ 1e6), and its
    # exact root must still pass the determinant certificate
    p = ModelParams(xi=xi, delta=delta)
    e = 2.0 * delta - 1e-6
    roots = find_channel_roots(e, p)
    assert roots.lam.shape == (3,)
    assert np.abs(roots.z).min() < 1e-5
    for lam, vector in zip(roots.lam, roots.vectors.T):
        m = bloch_matrix(p, lam) - e * np.eye(4)
        backward = np.linalg.norm(m @ vector) / np.linalg.norm(m)
        assert backward < 1e-12


def test_continuity_across_band_edge():
    # approaching a band edge from the gap side, |Im lam| -> 0 continuously
    p = ModelParams(xi=-0.2)
    bs = band_structure(p)
    edge = bs.gaps[0].lo  # top of the mixed band
    kappas = []
    for eps in (1e-2, 1e-4, 1e-6):
        channels = find_channel_roots(edge + eps, p)
        kappas.append(channels.lam.imag[~channels.is_open].min())
    assert kappas[0] > kappas[1] > kappas[2]
    assert kappas[2] < 1e-2


def test_k0_double_root_unfolds_into_two_channels():
    # at K=0 the AB and BA waves share one momentum (a double root); both
    # unfold into their own channel, open in band and closed in a gap, and
    # the three channel spinors stay linearly independent
    p = ModelParams(xi=-0.2)
    channels = find_channel_roots(0.1, p)
    mixed = [j for j, br in enumerate(channels.branch) if br in ("AB", "BA")]
    assert len(mixed) == 2
    assert abs(channels.lam[mixed[0]] - channels.lam[mixed[1]]) < 1e-12
    assert spinor_sigma_min(channels) > 1e-3
    gap = band_structure(p).gaps[0]
    channels = find_channel_roots(0.5 * (gap.lo + gap.hi), p)
    assert not channels.is_open.any()
    z = channels.z
    assert min(abs(z[i] - z[j]) for i in range(3) for j in range(i)) < 1e-10
    assert spinor_sigma_min(channels) > 1e-3


def test_expansion_moments_are_chain_sums():
    # the closed-form lag-0 and lag-1 moments equal the site-by-site sums of
    # the expansion, with the K = 0 double root and without it
    rng = np.random.default_rng(5)
    for K in (0.0, 0.9):
        p = ModelParams(xi=-0.3, delta=-1.0, K=K)
        gap = band_structure(p).gaps[0]
        roots = find_channel_roots(0.5 * (gap.lo + gap.hi), p)
        assert not roots.is_open.any()
        scaled = rng.normal(size=3) + 1j * rng.normal(size=3)
        contact = np.array([rng.normal(), rng.normal(), 0.0, 0.0])
        n = int(np.ceil(40.0 / roots.lam.imag.min()))
        beta = channel_expansion(np.arange(1, n + 2), roots, scaled, contact)
        for lag in (0, 1):
            direct = beta[lag:n + lag].T @ np.conj(beta[:n])
            moment = expansion_moment(roots, scaled, lag)
            assert np.abs(moment - direct).max() < 1e-12 * np.abs(direct).max()
        # site 0 carries the contact spinor, l < 0 the exchange mirror
        assert np.array_equal(channel_expansion(0, roots, scaled, contact), contact)
        mirror = channel_expansion(-np.arange(1, 6), roots, scaled, contact)
        assert np.array_equal(mirror, beta[:5] @ PARITY)


def test_channel_set_is_read_only():
    # one record serves every state built at its energy and the ring
    # embedding, so no consumer may write into it: in band (open and
    # closed channels) and in a gap (closed only), also once unpickled
    p = ModelParams(xi=-0.2)
    gap = band_structure(p).gaps[0]
    for e in (0.1, 0.5 * (gap.lo + gap.hi)):
        roots = find_channel_roots(e, p)
        copy = pickle.loads(pickle.dumps(roots))    # as sweep workers return it
        for name in ("lam", "z", "vectors", "is_open", "group_velocity"):
            for array in (getattr(roots, name), getattr(copy, name)):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = array[(0,) * array.ndim]
        assert isinstance(roots.branch, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            roots.z = np.zeros(3)


def test_determinant_scale_matches_row_norms():
    # the certificate's scale from the per-parameter record's row norms equals the
    # direct product of row norms of A - E plus the weighted hopping norms,
    # over validate-style draws and at a closed root with |z| ~ 1e-4
    rng = np.random.default_rng(43)
    draws = []
    for _ in range(200):
        p = validation._draw_params(rng)
        draws.append((p, rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)))
    draws.append((ModelParams(xi=-0.5, delta=-1.0), -2.0 - 4e-4))
    checked = 0
    for p, e in draws:
        try:
            roots = find_channel_roots(e, p)
        except TwoPolaritonError:
            continue
        checked += 1
        mats = bloch_matrices(p)
        cos, sin = np.cos(roots.lam), np.sin(roots.lam)
        weights = np.maximum(1.0, np.abs([cos, sin]))
        hop_norms = np.linalg.norm([mats.hop_cos, mats.hop_sin], axis=2)
        want = np.prod(np.linalg.norm(mats.onsite - e * np.eye(4), axis=1)
                       + weights.T @ hop_norms, axis=1)
        got = np.array(channels._det_certificate(e, mats, roots.lam)[1])
        assert (np.abs(got - want) <= 1e-14 * want).all()
    assert checked > 190
    assert 5e-5 < np.abs(roots.z).min() < 2e-4


def test_batched_determinant_check_matches_per_energy():
    # one call over the roots of several energies, E one per root, gives each
    # root the |det| and, to 1e-14, the scale of the call at its own energy,
    # and passes and fails the same roots; the batched refusal names the
    # first failing root in order with the message of that energy's own call
    p = ModelParams(xi=-0.3, delta=-1.0, K=0.7)
    mats = bloch_matrices(p)
    gap = band_structure(p).gaps[0]
    energies = [-2.5, 0.1, 4.0, *np.linspace(gap.lo, gap.hi, 7)[1:-1]]
    per_energy = []
    for i, e in enumerate(energies):
        lam = np.array(find_channel_roots(e, p).lam)
        if i % 3 == 1:
            lam[i % 2 + 1] += 1e-6      # a planted wrong root
        per_energy.append((e, lam, channels._det_certificate(e, mats, lam)))
    energy = np.repeat(energies, 3)[:, None, None]
    lam = np.concatenate([lam for _, lam, _ in per_energy])
    vals, scales, _ = channels._det_certificate(energy, mats, lam)
    want_vals = [v for _, _, (vs, _, _) in per_energy for v in vs]
    want_scales = np.array([s for _, _, (_, ss, _) in per_energy for s in ss])
    assert vals == want_vals
    assert (np.abs(np.array(scales) - want_scales) <= 1e-14 * want_scales).all()
    passed = [v <= 1e-9 * s for v, s in zip(vals, scales)]
    assert passed == [v <= 1e-9 * s for v, s in zip(want_vals, want_scales)]
    assert passed.count(False) == 3
    with pytest.raises(ConditioningError, match="fails the determinant condition") as batched:
        channels._check_determinant(energy, mats, lam)
    e, lam_e, _ = per_energy[1]
    with pytest.raises(ConditioningError) as single:
        channels._check_determinant(e, mats, lam_e)
    assert str(batched.value) == str(single.value)
    keep = [i for i, ok in enumerate(passed) if ok]
    channels._check_determinant(energy[keep], mats, lam[keep])


@pytest.mark.parametrize("bad", [np.nan, 0.3 + np.nan * 1j, 1e300j])
def test_determinant_check_refuses_non_finite_roots(bad):
    # a NaN or overflowing root gives a NaN or infinite |det| or scale, which
    # fails the certificate instead of comparing False and passing, and
    # raises no floating-point warning on the way
    p = ModelParams(xi=-0.3, delta=-1.0, K=0.7)
    mats = bloch_matrices(p)
    lam = np.array(find_channel_roots(-2.5, p).lam)
    channels._check_determinant(-2.5, mats, lam)
    lam[1] = bad
    with pytest.raises(ConditioningError, match=re.escape(f"lam={lam[1]:.6g} fails the determinant")):
        channels._check_determinant(-2.5, mats, lam)
