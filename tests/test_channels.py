"""Outgoing-channel roots of the site-equation determinant at fixed energy.

The root certificates over random draws are asserted by the validation
check channel-roots; the tests named after them here plant a fault of the
kind each guards and require the check to fail.
"""

import dataclasses
import pickle
import warnings

import numpy as np
import pytest
import scipy.linalg

from twopolaritons import channels, validation
from twopolaritons.bands import band_structure, branch_energy
from twopolaritons.channels import channel_expansion, expansion_moment, find_channel_roots
from twopolaritons.errors import (ConditioningError, DegenerateParametersError, ParameterError,
                                  TwoPolaritonError)
from twopolaritons.model import PARITY, ModelParams, bloch_matrices, bloch_matrix
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


def test_cached_pencil_data_is_read_only():
    pencil = channels._pencil(ModelParams(xi=-0.3, delta=0.8, K=0.9))
    arrays = [a for a in pencil if isinstance(a, np.ndarray)]
    assert len(arrays) == len(pencil) - 1
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


def test_ggev_failure_is_a_conditioning_error(monkeypatch):
    real = channels._GGEV

    def failing(*args, **kwargs):
        return (*real(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(channels, "_GGEV", failing)
    with pytest.raises(ConditioningError, match="info = 1"):
        find_channel_roots(0.1, ModelParams(xi=-0.2))


def test_pencil_eigenvalues_match_scipy_eig(monkeypatch):
    # the eigenvalues of the direct LAPACK call inside find_channel_roots
    # equal those of scipy.linalg.eig, bit for bit, on the companion pencil
    # built afresh from the model blocks
    real, seen = channels._GGEV, []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append(out[:2])
        return out

    monkeypatch.setattr(channels, "_GGEV", recorded)
    rng = np.random.default_rng(41)
    for _ in range(200):
        p = validation._draw_params(rng)
        e = rng.uniform(2.0 * p.delta - 6.0, 2.0 * p.delta + 6.0)
        seen.clear()
        try:
            find_channel_roots(e, p)
        except TwoPolaritonError:
            pass
        mats = bloch_matrices(p)
        hp, hm = mats.hop_blocks()
        lhs = np.zeros((8, 8), dtype=complex)
        rhs = np.zeros((8, 8), dtype=complex)
        lhs[:4, 4:] = rhs[:4, :4] = np.eye(4)
        lhs[4:, :4], lhs[4:, 4:], rhs[4:, 4:] = -hp, -(mats.onsite - e * np.eye(4)), hm
        (alpha, beta), _ = scipy.linalg.eig(lhs, rhs, homogeneous_eigvals=True)
        assert len(seen) == 1
        assert np.array_equal(seen[0][0], alpha) and np.array_equal(seen[0][1], beta)


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
    # the certificate's scale from cached per-parameter row data equals the
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
        pencil = channels._pencil(p)
        cos, sin = np.cos(roots.lam), np.sin(roots.lam)
        weights = np.maximum(1.0, np.abs([cos, sin]))
        want = np.prod(np.linalg.norm(pencil.onsite - e * np.eye(4), axis=1)
                       + weights.T @ pencil.hop_norms, axis=1)
        got = np.array(channels._det_scale(pencil, e, cos, sin))
        assert (np.abs(got - want) <= 1e-14 * want).all()
    assert checked > 190
    assert 5e-5 < np.abs(roots.z).min() < 2e-4
