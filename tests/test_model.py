"""Site-basis building blocks: parameters, Bloch blocks, residual operator."""

import numpy as np
import pytest

from twopolaritons.bands import branch_energy, incident_state
from twopolaritons.errors import ParameterError
from twopolaritons.model import (
    PARITY,
    SQRT2,
    ModelParams,
    bloch_matrices,
    bloch_matrix,
    contact_interaction,
    hop_blocks,
    single_polariton_energy,
    single_polariton_mode,
    site_residual,
)

RNG = np.random.default_rng(11)


def random_params(rng, k_zero=False):
    return ModelParams(
        xi=rng.uniform(-1.0, 1.0),
        delta=rng.uniform(-5.0, 5.0),
        K=0.0 if k_zero else rng.uniform(-2.0 * np.pi, 2.0 * np.pi),
    )


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(xi=0.1, g=0.0)
    with pytest.raises(ParameterError):
        ModelParams(xi=np.nan)
    with pytest.raises(ParameterError):
        ModelParams(xi=0.1, delta=np.inf)


def test_params_momentum_folding():
    p = ModelParams(xi=-0.2, K=5.0 * np.pi)
    assert -2.0 * np.pi <= p.K < 2.0 * np.pi
    # K enters only through K/2, so folding by 4*pi must not change physics
    q = 0.7
    assert np.allclose(bloch_matrix(p, q),
                       bloch_matrix(ModelParams(xi=-0.2, K=np.pi), q))


def test_parity_is_involution():
    assert np.array_equal(PARITY @ PARITY, np.eye(4))


def test_block_symmetry():
    for _ in range(50):
        p = random_params(RNG)
        m = bloch_matrices(p)
        for block in (m.onsite, m.hop_cos, m.hop_sin):
            assert np.array_equal(block, block.T)
        hp, hm = hop_blocks(p)
        assert np.abs(hm - hp.conj().T).max() == 0.0


def test_hop_sin_vanishes_at_zero_momentum():
    p = random_params(RNG, k_zero=True)
    assert np.abs(bloch_matrices(p).hop_sin).max() == 0.0


def test_tls_pair_component_does_not_hop():
    # One TLS excitation cannot move by itself; both hopping blocks must
    # therefore annihilate the TLS-pair slot.
    for _ in range(20):
        m = bloch_matrices(random_params(RNG))
        assert np.abs(m.hop_cos[3]).max() == 0.0
        assert np.abs(m.hop_sin[3]).max() == 0.0


def test_bloch_matrix_hermitian_real_momentum():
    for _ in range(50):
        p = random_params(RNG)
        lam = RNG.uniform(-np.pi, np.pi)
        m = bloch_matrix(p, lam)
        assert np.abs(m - m.conj().T).max() < 1e-14


def test_bloch_matrix_parity_conjugation():
    # Exchange of the two excitations maps relative momentum q to -q.
    for _ in range(50):
        p = random_params(RNG)
        lam = RNG.uniform(-np.pi, np.pi)
        lhs = PARITY @ bloch_matrix(p, lam) @ PARITY
        assert np.abs(lhs - bloch_matrix(p, -lam)).max() < 1e-14


def test_bloch_matrix_trace_rule():
    for _ in range(50):
        p = random_params(RNG)
        lam = RNG.uniform(-np.pi, np.pi)
        expect = 4.0 * p.delta + 8.0 * p.xi * np.cos(0.5 * p.K) * np.cos(lam)
        assert abs(np.trace(bloch_matrix(p, lam)) - expect) < 1e-12


def test_contact_block():
    p = ModelParams(xi=-0.3, g=1.7)
    v = contact_interaction(p)
    expect = np.zeros((4, 4))
    expect[1, 3] = expect[3, 1] = -SQRT2 * 1.7
    assert np.array_equal(v, expect)


def test_single_polariton_dispersion():
    # Dressed branches = eigenvalues of the 2x2 photon/TLS block at each k.
    for _ in range(50):
        p = random_params(RNG)
        k = RNG.uniform(-np.pi, np.pi)
        h = np.array([
            [2.0 * p.xi * np.cos(k), p.g],
            [p.g, p.delta],
        ])
        lo, hi = np.linalg.eigvalsh(h)
        assert abs(single_polariton_energy("A", k, p) - hi) < 1e-12
        assert abs(single_polariton_energy("B", k, p) - lo) < 1e-12


def test_single_polariton_trace_identity():
    for _ in range(50):
        p = random_params(RNG)
        k = RNG.uniform(-np.pi, np.pi)
        total = single_polariton_energy("A", k, p) \
            + single_polariton_energy("B", k, p)
        assert abs(total - (2.0 * p.xi * np.cos(k) + p.delta)) < 1e-12


def test_single_polariton_mode_eigenpair():
    for _ in range(20):
        p = random_params(RNG)
        k = RNG.uniform(-np.pi, np.pi)
        for kind in "AB":
            mode = single_polariton_mode(kind, k, p)
            h = np.array([
                [2.0 * p.xi * np.cos(k), p.g],
                [p.g, p.delta],
            ])
            vec = np.array([mode.photon_amp, mode.tls_amp])
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            assert np.linalg.norm(h @ vec - mode.energy * vec) < 1e-12


def test_site_residual_window():
    # a free wave solves every site equation away from the contact, and the
    # field must cover exactly one extra site beyond each end of the range
    p = ModelParams(xi=-0.3, delta=0.4, K=0.8)
    field = incident_state("AB", 1.1, p, np.arange(2, 13))
    e = branch_energy("AB", 1.1, p)
    assert site_residual(field, e, (3, 11), p).max() < 1e-12
    assert site_residual(field, e + 0.1, (3, 11), p).min() > 1e-3
    with pytest.raises(ValueError):
        site_residual(field[:-1], e, (3, 11), p)
