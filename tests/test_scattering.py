"""Contact-interaction scattering states and their conservation certificates.

Unitarity, exchange degeneracy, the certificates over random draws and
the free-chain null test are asserted by the validation checks
scattering-unitarity and scattering-free-chain; the tests named after
them here plant a fault of the kind each guards and require the check to
fail.
"""

import dataclasses

import numpy as np
import pytest

from twopolaritons import model, scattering, sweeps, validation
from twopolaritons.bands import branch_energy
from twopolaritons.channels import _solve_regular, contact_elimination, find_channel_roots
from twopolaritons.errors import ConditioningError, DegenerateParametersError, ParameterError
from twopolaritons.model import PARITY, ModelParams
from twopolaritons.scattering import probability_current, solve_scattering
from twopolaritons.sweeps import scatter_sweep
from twopolaritons.validation import run_checks

# Frozen regression value (xi=-0.2, delta=-10, K=0, g=1, q=0.3): the
# mixed-branch reflection amplitude deep in the photon-dominated regime.
F_AB_FROZEN = -0.3702151048663741 + 0.21919928960187418j


def test_one_block_build_per_solve():
    # every layer of a solve (roots, branch spinors, incident wave,
    # elimination, residual and current certificates) reads the one
    # per-parameter record: a fresh parameter set builds its blocks once
    model.bloch_matrices.cache_clear()
    sol = solve_scattering("AB", 1.1, ModelParams(xi=-0.2, delta=10.0, K=np.pi / 2))
    assert sol.residual_max < 1e-8
    info = model.bloch_matrices.cache_info()
    assert info.misses == 1 and info.hits > 0, info


def test_incident_momentum_validation():
    p = ModelParams(xi=-0.2)
    for q in (0.0, np.pi, -0.3, 3.5):
        with pytest.raises(ParameterError):
            solve_scattering("AB", q, p)


def test_frozen_mixed_branch_amplitude():
    p = ModelParams(xi=-0.2, delta=-10.0)
    sol = solve_scattering("AB", 0.3, p)
    assert abs(sol.coefficient("AB") - F_AB_FROZEN) < 1e-8


def tamper_amplitudes(monkeypatch, edit):
    """Make the checks see solutions whose amplitudes are scaled by edit(channel set)."""
    def tampered(branch, q, p):
        sol = solve_scattering(branch, q, p)
        return dataclasses.replace(sol, scaled_amplitudes=sol.scaled_amplitudes * edit(sol.roots))

    monkeypatch.setattr(validation, "solve_scattering", tampered)


def test_certificates_on_random_draws(monkeypatch):
    # a fault in the outgoing amplitudes off K = 0 only, where hp != hm,
    # must show in the site-residual certificate of the K != 0 draws
    def skewed(E, roots, params, incident=None):
        w, c, r = contact_elimination(E, roots, params, incident)
        return (w * (1.0 + 1e-6) if params.K != 0.0 else w), c, r

    monkeypatch.setattr(scattering, "contact_elimination", skewed)
    assert not run_checks(["scattering-unitarity"])[0].passed


def test_exchange_degenerate_amplitudes_equal(monkeypatch):
    # at K = 0 the AB and BA amplitudes coincide: a 1e-8 split fails
    tamper_amplitudes(monkeypatch, lambda r: 1.0 + 1e-8 * (np.array(r.branch) == "BA"))
    assert not run_checks(["scattering-unitarity"])[0].passed


def test_two_channel_optical_theorem(monkeypatch):
    # Re f = -2 |f|^2 with two open channels: a 1e-8 scale of f breaks it
    tamper_amplitudes(monkeypatch, lambda r: 1.0 + 1e-8)
    assert not run_checks(["scattering-unitarity"])[0].passed


def test_free_chain_does_not_scatter(monkeypatch):
    # b_0 = inc_0 and s = 0 hold for any W, so a wrong W passes the null
    # test itself; the l = 1 residual of s = W x must catch it
    def wrong_w(E, roots, params, incident=None):
        w, c, r = contact_elimination(E, roots, params, incident)
        return 1.001 * w, c, r

    monkeypatch.setattr(validation, "contact_elimination", wrong_w)
    assert not run_checks(["scattering-free-chain"])[0].passed


def test_singular_matching_blocks_are_refused():
    # a repeated channel spinor makes M_1 singular, and a rank-one contact
    # matrix has no unique solution: typed refusals, not LinAlgError
    p = ModelParams(xi=-0.3, delta=0.7)
    e = float(branch_energy("AB", 1.1, p))
    roots = find_channel_roots(e, p)
    pick = [0, 0, 2]
    repeated = dataclasses.replace(
        roots, lam=roots.lam[pick], z=roots.z[pick], vectors=roots.vectors[:, pick],
        is_open=roots.is_open[pick], branch=tuple(roots.branch[j] for j in pick),
        group_velocity=roots.group_velocity[pick])
    with pytest.raises(ConditioningError, match="M_1 at E"):
        contact_elimination(e, repeated, p)
    with pytest.raises(ConditioningError, match="singular to working precision"):
        _solve_regular(np.outer([1.0, 2.0], [3.0, 4.0]), np.ones(2), "S")


@pytest.mark.parametrize("n", [2, 3])
def test_solve_regular_agrees_with_lu(n):
    # one SVD gives the solve and the condition number: on well-conditioned
    # complex systems the solve agrees with LU for vector and matrix sides
    rng = np.random.default_rng(40 + n)
    for _ in range(50):
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        assert np.linalg.cond(m) < 1e3
        for rhs in (rng.normal(size=n) + 1j * rng.normal(size=n),
                    rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))):
            got, want = _solve_regular(m, rhs, "M"), np.linalg.solve(m, rhs)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("m", [
    np.array([[0.0, 1.0], [1e-17j, 0.0]]),
    np.array([[0.0, 1e-17j, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]]),
])
def test_solve_regular_refuses_tiny_pivot(m):
    # singular values exactly {1 or 2, ..., 1e-17}: cond 1e17 or more with
    # no zero pivot, which LU solves without complaint
    rhs = np.ones(len(m))
    assert np.isfinite(np.linalg.solve(m, rhs)).all()
    with pytest.raises(ConditioningError, match="singular to working precision"):
        _solve_regular(m, rhs, "M")


def test_svd_failure_is_a_conditioning_error(monkeypatch):
    # an SVD that does not converge is a typed refusal, not a LinAlgError,
    # in the M_1 solve of every energy and in the scattering contact solve
    real = np.linalg.svd

    def failing(sizes):
        def svd(m, *args, **kwargs):
            if m.shape[-1] in sizes:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(m, *args, **kwargs)
        return svd

    p = ModelParams(xi=-0.3, delta=0.7)
    monkeypatch.setattr(np.linalg, "svd", failing((2, 3)))
    with pytest.raises(ConditioningError, match="SVD failed on M: SVD did not converge"):
        _solve_regular(np.eye(2) + 0.5j, np.ones(2), "M")
    with pytest.raises(ConditioningError, match="SVD failed on channel block M_1"):
        solve_scattering("AB", 1.1, p)
    monkeypatch.setattr(np.linalg, "svd", failing((2,)))
    with pytest.raises(ConditioningError, match="SVD failed on contact matrix S at E = "):
        solve_scattering("AB", 1.1, p)


def test_wavefunction_exchange_parity():
    p = ModelParams(xi=-0.2, delta=0.5)
    sol = solve_scattering("AB", 0.9, p)
    ls = np.arange(1, 8)
    right = sol.wavefunction(ls)
    left = sol.wavefunction(-ls)
    for i in range(len(ls)):
        assert np.linalg.norm(left[i] - PARITY @ right[i]) < 1e-12


def test_wavefunction_site_equation_far_field():
    from twopolaritons.model import bloch_matrices, hop_blocks

    p = ModelParams(xi=-0.25, delta=-0.8, K=0.4)
    sol = solve_scattering("AB", 1.3, p)
    hp, hm = hop_blocks(p)
    onsite = bloch_matrices(p).onsite
    for l in (2, 7, 19, 43):
        b = [sol.wavefunction(l + d) for d in (-1, 0, 1)]
        resid = onsite @ b[1] + hp @ b[0] + hm @ b[2] - sol.energy * b[1]
        assert np.linalg.norm(resid) < 1e-10


def test_closed_channel_content_decays():
    # Far from the contact, the state must reduce to the open-channel plane
    # waves; subtracting them leaves only evanescent residue.
    from twopolaritons.bands import branch_vector

    p = ModelParams(xi=-0.2, delta=0.5)
    q = 0.9
    sol = solve_scattering("AB", q, p)
    roots = sol.roots
    kappa = roots.lam.imag[~roots.is_open].min()

    def open_part(l):
        out = 0.5 * (np.exp(1j * q * l)
                     * branch_vector("AB", q, p).astype(complex)
                     + np.exp(-1j * q * l)
                     * (PARITY @ branch_vector("AB", q, p)).astype(complex))
        for j in np.flatnonzero(roots.is_open):
            out += sol.amplitudes[j] * np.exp(1j * roots.lam[j].real * l) * roots.vectors[:, j]
        return out

    resid = [np.linalg.norm(sol.wavefunction(l) - open_part(l))
             for l in (5, 10, 15)]
    assert resid[0] < np.exp(-kappa * 4)
    assert resid[2] < resid[1] < resid[0]


def test_current_certificate_zero_everywhere():
    p = ModelParams(xi=-0.2, delta=1.5)
    sol = solve_scattering("AB", 0.7, p)
    cur = probability_current(sol.wavefunction(np.arange(-10, 11)), p)
    assert cur.shape == (20,)
    assert np.abs(cur).max() < 1e-10


def test_tls_pair_amplitude_vanishes_at_contact():
    # hard-core constraint: the same-site TLS-pair slot carries no weight
    p = ModelParams(xi=-0.3, delta=0.2)
    sol = solve_scattering("AB", 1.0, p)
    beta0 = sol.wavefunction(0)
    assert abs(beta0[3]) < 1e-12
    # and the antisymmetric slot vanishes at l = 0 by exchange symmetry
    assert abs(beta0[2]) < 1e-12


def test_zone_boundary_sweep_points_are_skipped():
    # at K = pi the channel problem is refused; a sweep records the reason
    points = scatter_sweep("AB", [0.5, 1.5], [-2.0], -0.2, K=np.pi, jobs=1)
    assert len(points) == 2
    for pt in points:
        assert pt.solution is None
        assert "zone boundary K = pi" in pt.note


@pytest.mark.parametrize("error", [DegenerateParametersError, ConditioningError])
def test_sweep_skips_every_typed_refusal(monkeypatch, error):
    # any solver refusal becomes a skipped point with its reason
    def refuse(branch, q, params):
        raise error(f"refused at q = {q}")

    monkeypatch.setattr(sweeps, "solve_scattering", refuse)
    points = scatter_sweep("AB", [0.5], [-2.0], -0.2, jobs=1)
    assert points[0].solution is None
    assert points[0].note == "refused at q = 0.5"
