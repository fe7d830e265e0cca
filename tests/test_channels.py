"""Outgoing-channel roots of the site-equation determinant at fixed energy.

The root certificates over random draws are asserted by the validation
check channel-roots; the tests named after them here plant a fault of the
kind each guards and require the check to fail.
"""

import dataclasses

import numpy as np
import pytest

from twopolaritons import validation
from twopolaritons.bands import band_structure, branch_energy
from twopolaritons.channels import channel_expansion, expansion_moment, find_channel_roots
from twopolaritons.errors import DegenerateParametersError
from twopolaritons.model import PARITY, ModelParams, bloch_matrix
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
    phi = np.array([r.vector for r in channels]).T
    return np.linalg.svd(phi, compute_uv=False)[-1]


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
        assert len(channels) == 3
        assert spinor_sigma_min(channels) > 1e-3
        zk = np.exp(1j * np.array([s * r.lam for r in channels for s in (1, -1)]))
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
        return [r if r.is_open else dataclasses.replace(r, vector=r.vector + 1e-11)
                for r in find_channel_roots(e, p)]

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
        r0 = sorted(find_channel_roots(e, p0), key=lambda r: (r.lam.real, r.lam.imag))
        r1 = sorted(find_channel_roots(e, p1), key=lambda r: (r.lam.real, r.lam.imag))
        for a, b in zip(r0, r1):
            assert abs(a.lam - b.lam) < 1e-5
            assert a.is_open == b.is_open


def test_open_closed_split_in_band_and_gap():
    p = ModelParams(xi=-0.2)
    bs = band_structure(p)
    # in-band energy away from E = 2*delta: AB and BA open, one closed mode
    channels = find_channel_roots(0.1, p)
    open_roots = [r for r in channels if r.is_open]
    assert len(open_roots) == 2
    assert sorted(r.branch for r in open_roots) == ["AB", "BA"]
    # mid AA band: one open channel
    e_aa = 0.5 * sum(bs.branch_edges["AA"])
    open_aa = [r for r in find_channel_roots(e_aa, p) if r.is_open]
    assert len(open_aa) == 1 and open_aa[0].branch == "AA"
    # in a gap: all channels closed and decaying
    gap = bs.gaps[0]
    channels = find_channel_roots(0.5 * (gap.lo + gap.hi), p)
    assert all(not r.is_open for r in channels)
    for r in channels:
        assert abs(r.z) < 1.0  # retained root decays to the right
        assert r.lam.imag > 0.0


def test_open_roots_are_real_momenta_on_branch():
    p = ModelParams(xi=-0.35, delta=0.9, K=0.7)
    e = branch_energy("AB", 1.2, p)
    channels = find_channel_roots(e, p)
    for root in channels:
        if not root.is_open:
            continue
        assert abs(root.lam.imag) < 1e-10
        assert abs(branch_energy(root.branch, root.lam.real, p) - e) < 1e-8
        assert abs(abs(root.z) - 1.0) < 1e-10


def test_group_velocity_sign():
    # retained open roots carry flux away from the scatterer (v > 0), and
    # the stored velocity matches the branch dispersion derivative.
    from twopolaritons.bands import branch_energy_derivative

    p = ModelParams(xi=-0.2, delta=0.1)
    e = 0.05
    for root in find_channel_roots(e, p):
        if root.is_open:
            assert root.group_velocity > 0.0
            expect = branch_energy_derivative(root.branch, root.lam.real, p)
            assert abs(root.group_velocity - abs(expect)) < 1e-8


def test_scale_invariance():
    # (xi, delta, E) -> s*(xi, delta, E) with g -> s*g leaves channels fixed
    p1 = ModelParams(xi=-0.3, delta=0.8, K=0.9, g=1.0)
    p2 = ModelParams(xi=-0.6, delta=1.6, K=0.9, g=2.0)
    r1 = find_channel_roots(1.3, p1)
    r2 = find_channel_roots(2.6, p2)
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert abs(a.lam - b.lam) < 1e-8
        assert a.branch == b.branch


def test_channel_count_error_at_degenerate_energy():
    # E = 2*delta makes the like-branch factor degenerate at K=0
    p = ModelParams(xi=-0.2, delta=0.4)
    with pytest.raises(DegenerateParametersError, match="twice the detuning"):
        find_channel_roots(0.8, p)


def test_zone_boundary_is_refused():
    # at K = pi, 2 xi cos(K/2) = 0: the photon pair does not hop, the
    # hopping block loses rank and the channel problem is refused
    p = ModelParams(xi=-0.2, delta=-2.0, K=np.pi)
    with pytest.raises(DegenerateParametersError, match="zone boundary"):
        find_channel_roots(-1.0, p)


@pytest.mark.parametrize("xi, delta", [(-0.5, -1.0), (-0.75, -1.5)])
def test_roots_certified_next_to_twice_detuning(xi, delta):
    # a gap edge sits exactly at 2 delta here; 1e-6 inside it the third
    # channel decays almost at once (|z| ~ 1e-6, |cos lam| ~ 1e6), and its
    # exact root must still pass the determinant certificate
    p = ModelParams(xi=xi, delta=delta)
    e = 2.0 * delta - 1e-6
    roots = find_channel_roots(e, p)
    assert len(roots) == 3
    assert min(abs(r.z) for r in roots) < 1e-5
    for r in roots:
        m = bloch_matrix(p, r.lam) - e * np.eye(4)
        backward = np.linalg.norm(m @ r.vector) / np.linalg.norm(m)
        assert backward < 1e-12


def test_continuity_across_band_edge():
    # approaching a band edge from the gap side, |Im lam| -> 0 continuously
    p = ModelParams(xi=-0.2)
    bs = band_structure(p)
    edge = bs.gaps[0].lo  # top of the mixed band
    kappas = []
    for eps in (1e-2, 1e-4, 1e-6):
        channels = find_channel_roots(edge + eps, p)
        kappas.append(min(r.lam.imag for r in channels if not r.is_open))
    assert kappas[0] > kappas[1] > kappas[2]
    assert kappas[2] < 1e-2


def test_k0_double_root_unfolds_into_two_channels():
    # at K=0 the AB and BA waves share one momentum (a double root); both
    # unfold into their own channel, open in band and closed in a gap, and
    # the three channel spinors stay linearly independent
    p = ModelParams(xi=-0.2)
    channels = find_channel_roots(0.1, p)
    mixed = [r for r in channels if r.branch in ("AB", "BA")]
    assert len(mixed) == 2
    assert abs(mixed[0].lam - mixed[1].lam) < 1e-12
    assert spinor_sigma_min(channels) > 1e-3
    gap = band_structure(p).gaps[0]
    channels = find_channel_roots(0.5 * (gap.lo + gap.hi), p)
    assert not any(r.is_open for r in channels)
    assert min(abs(channels[i].z - channels[j].z) for i in range(3) for j in range(i)) < 1e-10
    assert spinor_sigma_min(channels) > 1e-3


def test_expansion_moments_are_chain_sums():
    # the closed-form lag-0 and lag-1 moments equal the site-by-site sums of
    # the expansion, with the K = 0 double root and without it
    rng = np.random.default_rng(5)
    for K in (0.0, 0.9):
        p = ModelParams(xi=-0.3, delta=-1.0, K=K)
        gap = band_structure(p).gaps[0]
        roots = find_channel_roots(0.5 * (gap.lo + gap.hi), p)
        assert not any(r.is_open for r in roots)
        scaled = rng.normal(size=3) + 1j * rng.normal(size=3)
        contact = np.array([rng.normal(), rng.normal(), 0.0, 0.0])
        n = int(np.ceil(40.0 / min(r.lam.imag for r in roots)))
        beta = channel_expansion(np.arange(1, n + 2), roots, scaled, contact)
        for lag in (0, 1):
            direct = beta[lag:n + lag].T @ np.conj(beta[:n])
            moment = expansion_moment(roots, scaled, lag)
            assert np.abs(moment - direct).max() < 1e-12 * np.abs(direct).max()
        # site 0 carries the contact spinor, l < 0 the exchange mirror
        assert np.array_equal(channel_expansion(0, roots, scaled, contact), contact)
        mirror = channel_expansion(-np.arange(1, 6), roots, scaled, contact)
        assert np.array_equal(mirror, beta[:5] @ PARITY)
