"""Finite-ring exact diagonalization used as the independent oracle.

The construction, the xi = 0 level set, the bound-state agreement and the
band-edge audit are asserted by the validation checks ed-construction,
ed-jc-levels, ed-bound-agreement and ed-band-edges; the tests named after
them here plant a fault of the kind each guards and require the check to
fail.
"""

import dataclasses

import numpy as np
import pytest

from twopolaritons import ring_ed, validation
from twopolaritons.bands import band_structure
from twopolaritons.bound_states import find_bound_states
from twopolaritons.errors import OracleMismatchError, ParameterError
from twopolaritons.model import SQRT2, ModelParams
from twopolaritons.ring_ed import (
    TwoExcitationBasis,
    build_hamiltonian,
    compare_bound_state,
    momentum_blocks,
    ring_embedding,
)
from twopolaritons.validation import run_checks


def test_basis_dimension_and_roundtrip():
    for n in (3, 5, 8):
        basis = TwoExcitationBasis(n)
        assert basis.dim == 2 * n * n
        # the closed-form lookups invert the enumeration, family by family
        index = np.concatenate([getattr(basis, kind)(*basis.sites(kind))
                                for kind in ring_ed.FAMILIES])
        assert np.array_equal(index, np.arange(basis.dim))
    with pytest.raises(ParameterError):
        TwoExcitationBasis(2)


def test_basis_lookup_respects_ordering():
    basis = TwoExcitationBasis(6)
    assert basis.pp(4, 1) == basis.pp(1, 4)
    assert basis.tt(5, 2) == basis.tt(2, 5)
    assert basis.mix(1, 4) != basis.mix(4, 1)  # photon and TLS sites differ
    # periodic wrapping
    assert basis.pp(0, 7) == basis.pp(0, 1)


def test_hamiltonian_is_exactly_symmetric(monkeypatch):
    # both orientations of every element are written independently, so a
    # 1e-15 defect in one orientation must fail the exact symmetry check
    def one_sided(N, params):
        h = build_hamiltonian(N, params).tolil()
        h[0, 1] += 1e-15
        return h.tocsr()

    monkeypatch.setattr(validation, "build_hamiltonian", one_sided)
    assert not run_checks(["ed-construction"])[0].passed


def test_hamiltonian_elements():
    n = 7
    p = ModelParams(xi=-0.2, delta=0.9, g=1.3)
    basis = TwoExcitationBasis(n)
    h = build_hamiltonian(n, p).toarray()
    # double photon occupation couples to the same-site mixed state at
    # sqrt(2) g (bosonic enhancement)
    assert h[basis.mix(2, 2), basis.pp(2, 2)] == SQRT2 * p.g
    # separated pairs couple at plain g
    assert h[basis.mix(4, 2), basis.pp(2, 4)] == p.g
    assert h[basis.tt(2, 4), basis.mix(2, 4)] == p.g
    # hopping off a doubly occupied site is bosonically enhanced
    assert h[basis.pp(2, 3), basis.pp(2, 2)] == SQRT2 * p.xi
    # ordinary photon hopping
    assert h[basis.pp(1, 4), basis.pp(1, 3)] == p.xi
    assert h[basis.mix(3, 6), basis.mix(2, 6)] == p.xi
    # the TLS excitation itself never hops
    assert np.abs(h[basis.tt(1, 3)][[basis.tt(1, 2), basis.tt(1, 4)]]).max() == 0.0
    # diagonal: detuning per TLS excitation
    assert h[basis.pp(1, 3), basis.pp(1, 3)] == 0.0
    assert h[basis.mix(1, 3), basis.mix(1, 3)] == p.delta
    assert h[basis.tt(1, 3), basis.tt(1, 3)] == 2.0 * p.delta


def test_translation_commutes_exactly(monkeypatch):
    # twice the translation still commutes with H; only the exact
    # permutation test tells it from T
    monkeypatch.setattr(validation, "translation_operator",
                        lambda N: 2.0 * ring_ed.translation_operator(N))
    assert not run_checks(["ed-construction"])[0].passed


def test_sector_decomposition_reproduces_full_spectrum(monkeypatch):
    # a lost momentum sector leaves the pooled spectrum short
    monkeypatch.setattr(validation, "momentum_blocks",
                        lambda h, N: ring_ed.momentum_blocks(h, N)[:-1])
    assert not run_checks(["ed-construction"])[0].passed


def test_sector_momenta_are_ring_momenta():
    n = 6
    sectors = momentum_blocks(build_hamiltonian(n, ModelParams(xi=-0.2)), n)
    assert len(sectors) == n
    for s in sectors:
        assert abs(s.momentum - 2.0 * np.pi * s.n / n) < 1e-15


def test_momentum_blocks_reject_doctored_hamiltonian():
    n = 6
    h = build_hamiltonian(n, ModelParams(xi=-0.3)).tolil()
    h[0, 5] += 0.1  # breaks translation covariance
    h[5, 0] += 0.1
    with pytest.raises(RuntimeError):
        momentum_blocks(h.tocsr(), n)


def test_zero_hopping_matches_single_site_levels(monkeypatch):
    # closed-form levels that ignore the coupling's scale agree at g = 1
    # only; the check runs at g = 1.1 to catch that
    monkeypatch.setattr(validation, "jc_pair_levels", lambda p, N: ring_ed.jc_pair_levels(
        dataclasses.replace(p, g=1.0), N))
    assert not run_checks(["ed-jc-levels"])[0].passed


def test_ring_embedding_momentum_compatibility():
    p = ModelParams(xi=-0.2, K=0.7)  # not a multiple of 2 pi / 24
    bs = band_structure(p)
    st = find_bound_states(p, bs.gaps[0])[0]
    with pytest.raises(ParameterError):
        ring_embedding(st, 24)


def explicit_winding_sum(st, N):
    """The ring vector of st as an explicit sum over separations |l| <= span.

    The pair at separation l (photon on m, the other excitation on m + l)
    carries e^{iK(m + l/2)} beta_l; span holds whole windings and reaches
    |z|^span < e^-42 for the slowest channel.
    """
    basis = TwoExcitationBasis(N)
    K = st.params.K
    span = N * int(np.ceil(42.0 / (st.decay_rate * N)))
    ls = np.arange(-span, span + 1)
    m = np.arange(N)
    com = np.exp(1j * K * m)
    psi = np.zeros(basis.dim, dtype=complex)
    beta = st.wavefunction(ls) * np.exp(0.5j * K * ls)[:, None]
    for l, (p, d_sym, d_asy, t) in zip(ls, beta):
        if l == 0:
            np.add.at(psi, basis.pp(m, m), SQRT2 * p * com)
            np.add.at(psi, basis.mix(m, m), SQRT2 * d_sym * com)
            continue
        np.add.at(psi, basis.pp(m, m + l), p * com)
        np.add.at(psi, basis.mix(m, m + l), (d_sym + d_asy) / SQRT2 * com)
        np.add.at(psi, basis.mix(m + l, m), (d_sym - d_asy) / SQRT2 * com)
        if l % N:
            np.add.at(psi, basis.tt(m, m + l), t * com)
    return psi


@pytest.mark.parametrize("K", [0.0, 2.0 * np.pi * 3 / 24])
def test_ring_embedding_matches_explicit_winding_sum(K):
    # K = 0, and an odd sector of N = 24, where e^{iKN/2} = -1 alternates
    # the windings and the mirrored d_- slot is nonzero
    p = ModelParams(xi=-0.2, delta=-2.0, K=K)
    states = [st for gap in band_structure(p).gaps for st in find_bound_states(p, gap)]
    assert len(states) == 2
    for st in states:
        ref = explicit_winding_sum(st, 24)
        err = np.linalg.norm(ring_embedding(st, 24) - ref) / np.linalg.norm(ref)
        assert err < 1e-13


def test_band_edge_audit_uses_the_sector_of_K():
    # at K = pi/2 the bands and the bound states belong to sector n = 12;
    # audited against sector 0 the same ring shows 6 violations
    rep = ring_ed.band_edge_check(ModelParams(xi=-0.2, delta=0.0, K=np.pi / 2), 48)
    assert rep.violations == ()
    assert len(rep.in_gap) == rep.expected_bound_count == 2
    assert rep.ok


def test_compare_bound_state_converges(monkeypatch):
    # an N = 12 error below the N = 24 one means the ring shift grew with N
    def growing(st, ns):
        r12, r24 = compare_bound_state(st, ns)
        return dataclasses.replace(r12, error=0.0), r24

    monkeypatch.setattr(validation, "compare_bound_state", growing)
    assert not run_checks(["ed-bound-agreement"])[0].passed


def test_embedding_is_translation_invariant(monkeypatch):
    # a site-dependent phase of 1e-6 per site leaves energies and overlaps
    # within their bounds; only the translation clause catches it
    def twisted(st, N):
        basis = TwoExcitationBasis(N)
        sites = np.concatenate([basis.sites(kind)[0] for kind in ring_ed.FAMILIES])
        return ring_ed.ring_embedding(st, N) * np.exp(1e-6j * sites)

    monkeypatch.setattr(validation, "ring_embedding", twisted)
    assert not run_checks(["ed-bound-agreement"])[0].passed


def test_compare_bound_state_rejects_wrong_energy():
    p = ModelParams(xi=-0.2)
    bs = band_structure(p)
    st = find_bound_states(p, bs.gaps[0])[0]
    # inside the mixed band, then inside the other gap: the state is
    # compared only within the gap it was found in
    for energy in (0.0, 0.5 * (bs.gaps[1].lo + bs.gaps[1].hi)):
        fake = dataclasses.replace(st, energy=energy)
        with pytest.raises(OracleMismatchError):
            compare_bound_state(fake, (12,))


def test_band_edge_audit(monkeypatch):
    # an attribution that loses one sector-0 eigenvalue passes every other
    # clause of the audit; the dimension count must catch it
    def lossy(params, N):
        rep = ring_ed.band_edge_check(params, N)
        return dataclasses.replace(rep, band_counts=(rep.band_counts[0] - 1,)
                                   + rep.band_counts[1:])

    monkeypatch.setattr(validation, "band_edge_check", lossy)
    assert not run_checks(["ed-band-edges"])[0].passed
