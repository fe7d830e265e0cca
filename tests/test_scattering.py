"""Contact-interaction scattering states and their conservation certificates."""

import numpy as np
import pytest

from twopolaritons import sweeps
from twopolaritons.bands import branch_energy, incident_state
from twopolaritons.channels import (
    _solve_regular,
    channel_expansion,
    contact_elimination,
    find_channel_roots,
)
from twopolaritons.errors import BandEdgeError, ConditioningError, ParameterError
from twopolaritons.model import PARITY, ModelParams, contact_interaction, site_residual
from twopolaritons.scattering import (
    probability_current,
    scattering_wavefunction,
    solve_scattering,
)
from twopolaritons.sweeps import scatter_sweep

RNG = np.random.default_rng(41)

# Frozen regression value (xi=-0.2, delta=-10, K=0, g=1, q=0.3): the
# mixed-branch reflection amplitude deep in the photon-dominated regime.
F_AB_FROZEN = -0.3702151048663741 + 0.21919928960187418j


def random_params(rng, k_zero=False):
    return ModelParams(
        xi=rng.uniform(-1.0, -0.05),
        delta=rng.uniform(-3.0, 3.0),
        K=0.0 if k_zero else rng.uniform(-1.5, 1.5),
    )


def test_incident_momentum_validation():
    p = ModelParams(xi=-0.2)
    for q in (0.0, np.pi, -0.3, 3.5):
        with pytest.raises(ParameterError):
            solve_scattering("AB", q, p)


def test_frozen_mixed_branch_amplitude():
    p = ModelParams(xi=-0.2, delta=-10.0)
    sol = solve_scattering("AB", 0.3, p)
    assert abs(sol.coefficient("AB") - F_AB_FROZEN) < 1e-8


def test_certificates_on_random_draws():
    n_ok = 0
    for _ in range(30):
        p = random_params(RNG)
        q = RNG.uniform(0.3, 2.8)
        sol = solve_scattering("AB", q, p)
        n_ok += 1
        scale = max(1.0, abs(sol.energy))
        # the site residual over |l| <= 50 includes the l = 0, 1 matching rows
        assert sol.residual_max < 1e-8 * scale
        assert sol.current_max < 1e-8
    assert n_ok > 20


def test_exchange_degenerate_amplitudes_equal():
    # At zero pair momentum the AB and BA dispersions coincide, so the
    # symmetrized incident wave cannot distinguish the two orderings.
    for _ in range(20):
        p = random_params(RNG, k_zero=True)
        q = RNG.uniform(0.3, 2.8)
        sol = solve_scattering("AB", q, p)
        if set(sol.open_branches) >= {"AB", "BA"}:
            assert abs(sol.coefficient("AB") - sol.coefficient("BA")) < 1e-10


def test_two_channel_optical_theorem():
    # With only the AB/BA pair open at zero pair momentum, flux conservation
    # for the incident normalization used here reads Re f = -2 |f|^2.
    found = 0
    for _ in range(60):
        p = random_params(RNG, k_zero=True)
        q = RNG.uniform(0.3, 2.8)
        sol = solve_scattering("AB", q, p)
        if sorted(sol.open_branches) != ["AB", "BA"]:
            continue
        found += 1
        f = sol.coefficient("AB")
        assert abs(f.real + 2.0 * abs(f) ** 2) < 1e-10
        assert abs(f) ** 2 <= 0.25 + 1e-12
        if found >= 10:
            break
    assert found >= 10


def test_free_chain_does_not_scatter():
    # Removing the contact term (and freeing the TLS-pair slot) leaves a
    # translation-invariant chain: the contact elimination must return the
    # incident spinor at l = 0 and no outgoing wave, at K = 0 and off it.
    # That holds for any W, so W is checked on its own: for a contact
    # spinor x, the expansion with s = W x solves the l = 1 site equation.
    slots = [0, 1, 3]       # (p, d_+, t); d_- vanishes at l = 0 by symmetry
    x = np.array([0.6, -0.3 + 0.5j, 0.0, 0.2 - 0.4j])
    for K in (0.0, 1.3):
        p = ModelParams(xi=-0.3, delta=0.7, K=K)
        q = 1.1
        e = float(branch_energy("AB", q, p))
        roots = find_channel_roots(e, p)
        inc = incident_state("AB", q, p, np.array([0, 1]))
        w, c, r = contact_elimination(e, roots, p, inc)
        free = (c - contact_interaction(p))[np.ix_(slots, slots)]
        b0 = np.zeros(4, dtype=complex)
        b0[slots] = np.linalg.solve(free, r[slots])
        assert np.abs(b0 - inc[0]).max() < 1e-12
        assert np.abs(w @ (b0 - inc[0])).max() < 1e-12
        field = channel_expansion(np.arange(3), roots, w @ x, x)
        assert site_residual(field, e, (1, 1), p)[0] < 1e-12


def test_singular_matching_blocks_are_refused():
    # a repeated channel spinor makes M_1 singular, and a rank-one contact
    # matrix has no unique solution: typed refusals, not LinAlgError
    p = ModelParams(xi=-0.3, delta=0.7)
    e = float(branch_energy("AB", 1.1, p))
    roots = find_channel_roots(e, p)
    with pytest.raises(ConditioningError, match="M_1 at E"):
        contact_elimination(e, [roots[0], roots[0], roots[2]], p)
    with pytest.raises(ConditioningError, match="singular to working precision"):
        _solve_regular(np.outer([1.0, 2.0], [3.0, 4.0]), np.ones(2), "S")


def test_wavefunction_exchange_parity():
    p = ModelParams(xi=-0.2, delta=0.5)
    sol = solve_scattering("AB", 0.9, p)
    ls = np.arange(1, 8)
    right = scattering_wavefunction(sol, ls)
    left = scattering_wavefunction(sol, -ls)
    for i in range(len(ls)):
        assert np.linalg.norm(left[i] - PARITY @ right[i]) < 1e-12


def test_wavefunction_site_equation_far_field():
    from twopolaritons.model import bloch_matrices, hop_blocks

    p = ModelParams(xi=-0.25, delta=-0.8, K=0.4)
    sol = solve_scattering("AB", 1.3, p)
    hp, hm = hop_blocks(p)
    onsite = bloch_matrices(p).onsite
    for l in (2, 7, 19, 43):
        b = [scattering_wavefunction(sol, l + d) for d in (-1, 0, 1)]
        resid = onsite @ b[1] + hp @ b[0] + hm @ b[2] - sol.energy * b[1]
        assert np.linalg.norm(resid) < 1e-10


def test_closed_channel_content_decays():
    # Far from the contact, the state must reduce to the open-channel plane
    # waves; subtracting them leaves only evanescent residue.
    from twopolaritons.bands import branch_vector

    p = ModelParams(xi=-0.2, delta=0.5)
    q = 0.9
    sol = solve_scattering("AB", q, p)
    kappa = min(r.lam.imag for r in sol.roots if not r.is_open)

    def open_part(l):
        out = 0.5 * (np.exp(1j * q * l)
                     * branch_vector("AB", q, p).astype(complex)
                     + np.exp(-1j * q * l)
                     * (PARITY @ branch_vector("AB", q, p)).astype(complex))
        for j, r in enumerate(sol.roots):
            if r.is_open:
                out += sol.amplitudes[j] * np.exp(1j * r.lam.real * l) \
                    * r.vector.astype(complex)
        return out

    resid = [np.linalg.norm(scattering_wavefunction(sol, l) - open_part(l))
             for l in (5, 10, 15)]
    assert resid[0] < np.exp(-kappa * 4)
    assert resid[2] < resid[1] < resid[0]


def test_current_certificate_zero_everywhere():
    p = ModelParams(xi=-0.2, delta=1.5)
    sol = solve_scattering("AB", 0.7, p)
    cur = probability_current(scattering_wavefunction(sol, np.arange(-10, 11)), p)
    assert cur.shape == (20,)
    assert np.abs(cur).max() < 1e-10


def test_tls_pair_amplitude_vanishes_at_contact():
    # hard-core constraint: the same-site TLS-pair slot carries no weight
    p = ModelParams(xi=-0.3, delta=0.2)
    sol = solve_scattering("AB", 1.0, p)
    beta0 = scattering_wavefunction(sol, 0)
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


@pytest.mark.parametrize("error", [BandEdgeError, ConditioningError])
def test_sweep_skips_every_typed_refusal(monkeypatch, error):
    # any solver refusal becomes a skipped point with its reason
    def refuse(branch, q, params):
        raise error(f"refused at q = {q}")

    monkeypatch.setattr(sweeps, "solve_scattering", refuse)
    points = scatter_sweep("AB", [0.5], [-2.0], -0.2, jobs=1)
    assert points[0].solution is None
    assert points[0].note == "refused at q = 0.5"
