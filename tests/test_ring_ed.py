"""Finite-ring exact diagonalization used as the independent oracle.

The construction, the xi = 0 level set, the bound-state agreement and the
band-edge audit are asserted by the validation checks ed-construction,
ed-jc-levels, ed-bound-agreement and ed-band-edges; the tests named after
them here plant a fault of the kind each guards and require the check to
fail.
"""

import dataclasses
import re
import types

import numpy as np
import pytest
import scipy.sparse as sp

from twopolaritons import bound_states, ring_ed, validation
from twopolaritons.bands import band_structure
from twopolaritons.bound_states import find_bound_states
from twopolaritons.errors import OracleMismatchError, ParameterError
from twopolaritons.channels import expansion_winding
from twopolaritons.model import PARITY, SQRT2, ModelParams
from twopolaritons.sweeps import bound_sweep
from twopolaritons.ring_ed import (
    TwoExcitationBasis,
    build_hamiltonian,
    compare_bound_state,
    ring_embedding,
    ring_sector,
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
        h = build_hamiltonian(N, params)
        h[0, 1] += 1e-15
        return h

    monkeypatch.setattr(validation, "build_hamiltonian", one_sided)
    assert not run_checks(["ed-construction"])[0].passed


def test_hamiltonian_elements():
    n = 7
    p = ModelParams(xi=-0.2, delta=0.9, g=1.3)
    basis = TwoExcitationBasis(n)
    h = build_hamiltonian(n, p)
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
    # T is the index map step, T|i> = |step[i]>: a map that sends two states
    # to one is no permutation, and one that swaps the targets of two states
    # is a permutation that does not commute with H; the exact tests refuse both
    for fault in ("two states onto one", "two targets swapped"):
        def wrong(N, fault=fault):
            step = ring_ed.translation_operator(N).copy()
            if fault == "two states onto one":
                step[1] = step[0]
            else:
                step[[0, 1]] = step[[1, 0]]
            return step

        monkeypatch.setattr(validation, "translation_operator", wrong)
        result = run_checks(["ed-construction"])[0]
        assert not result.passed
        assert ("not a permutation" in result.detail) == (fault == "two states onto one")


def test_translation_operator_is_the_geometry_permutation():
    # T is the read-only step of the ring's geometry record: a second call
    # hands back the same array and builds no second geometry
    ring_ed._ring_geometry.cache_clear()
    step = ring_ed.translation_operator(8)
    assert ring_ed.translation_operator(8) is step
    assert step is ring_ed._ring_geometry(8).step
    assert ring_ed._ring_geometry.cache_info().misses == 1
    assert not step.flags.writeable
    basis = TwoExcitationBasis(8)
    assert np.array_equal(step, basis.translate())


def all_sectors(N, params):
    """Every sector of the N-site ring, n = 0..N-1, as ring_sector fills them."""
    return [ring_sector(dataclasses.replace(params, K=-2.0 * np.pi * n / N), N)
            for n in range(N)]


def test_sector_decomposition_reproduces_full_spectrum(monkeypatch):
    # a lost momentum sector leaves the pooled spectrum short
    def lost(p, N):
        s = ring_ed.ring_sector(p, N)
        if s.n < N - 1:
            return s
        return dataclasses.replace(s, eigenvalues=s.eigenvalues[:0],
                                   eigenvectors=s.eigenvectors[:, :0])

    monkeypatch.setattr(validation, "ring_sector", lost)
    assert not run_checks(["ed-construction"])[0].passed


@pytest.mark.parametrize("fault", ["opposite sector", "hopping off by 1e-9"])
def test_coupling_filled_sectors_match_momentum_blocks(monkeypatch, fault):
    # sectors n and -n share a spectrum, so only the sector labels tell them
    # apart; a relative hopping error of 1e-9 moves only the eigenvalues,
    # away from those of the dense H and of each sector's P^H H P
    def wrong(p, N):
        if fault == "opposite sector":
            return ring_ed.ring_sector(dataclasses.replace(p, K=-p.K), N)
        return ring_ed.ring_sector(dataclasses.replace(p, xi=p.xi * (1.0 + 1e-9)), N)

    monkeypatch.setattr(validation, "ring_sector", wrong)
    assert not run_checks(["ed-construction"])[0].passed


def test_sector_momenta_are_ring_momenta():
    for n_sites in range(3, 9):
        sectors = all_sectors(n_sites, ModelParams(xi=-0.2))
        assert [s.n for s in sectors] == list(range(n_sites))
        for s in sectors:
            assert abs(s.momentum - 2.0 * np.pi * s.n / n_sites) < 1e-15


@pytest.mark.parametrize("n_sites", range(3, 9))
def test_sector_blocks_equal_projected_hamiltonian(n_sites):
    # each block is summed from orbit-representative elements of H; it must
    # equal P^H H P from the sector's own projector, short antipodal orbits
    # (even N) included, and P must have orthonormal columns
    p = ModelParams(xi=-0.37, delta=0.41, g=1.3)
    h = build_hamiltonian(n_sites, p)
    for s in all_sectors(n_sites, p):
        proj = s.to_full(np.eye(s.dim))
        assert np.abs(proj.conj().T @ proj - np.eye(s.dim)).max() < 1e-13
        block = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
        assert np.abs(block - proj.conj().T @ h @ proj).max() < 1e-13, s.n


@pytest.mark.parametrize("n_sites", range(3, 9))
def test_sectors_are_real_where_the_phases_are(n_sites):
    # e^{-ikm} = +-1 when 2n = 0 (mod N): n = 0, and n = N/2 on even rings
    for s in all_sectors(n_sites, ModelParams(xi=-0.2, delta=0.3)):
        real = (2 * s.n) % n_sites == 0
        for array in (s.eigenvectors, s.amplitude):
            assert np.isrealobj(array) == real, (s.n, array.dtype)


def sparse_projector(sector):
    """The sector's projector as a scipy.sparse matrix, built from the orbits of
    its ring's _RingGeometry: state T^j first[o] has e^{-ik j} / sqrt(L_o) in
    the column of orbit o when sector n keeps o, with the phase +-1 exactly
    where 2n = 0 (mod N)."""
    geo = ring_ed._ring_geometry(sector.N)
    n, N, power = sector.n, sector.N, geo.power
    kept = (n * geo.length) % N == 0
    if (2 * n) % N == 0:
        phase = 1.0 - 2.0 * ((2 * n // N * power) % 2)
    else:
        phase = np.exp(-1j * sector.momentum * power)
    inside = kept[geo.orbit]
    rows = np.flatnonzero(inside)
    cols = (np.cumsum(kept) - 1)[geo.orbit[rows]]
    values = phase[rows] / np.sqrt(geo.length[geo.orbit[rows]])
    return sp.csr_matrix((values, (rows, cols)), shape=(geo.basis.dim, sector.dim))


@pytest.mark.parametrize("n_sites", [7, 8, 24])
def test_gather_is_the_sparse_projector_bit_for_bit(n_sites):
    # every sector's gather, applied to each sector basis vector and to the
    # eigenvectors, gives exactly what the sparse projector P gives
    for s in all_sectors(n_sites, ModelParams(xi=-0.37, delta=0.41, g=1.3)):
        proj = sparse_projector(s)
        dense = s.to_full(np.eye(s.dim))
        assert dense.dtype == proj.dtype and np.array_equal(dense, proj.toarray()), s.n
        assert np.array_equal(s.to_full(s.eigenvectors), proj @ s.eigenvectors), s.n
        for j in (0, s.dim - 1):
            assert np.array_equal(s.to_full(s.eigenvectors[:, j]), proj @ s.eigenvectors[:, j])


@pytest.mark.parametrize("kick", [0.1234567, 3e-12])
def test_commutator_defect_is_the_exact_one(monkeypatch, kick):
    # one g element kicked: the record's check reports max|H_g T - T H_g| of
    # the kicked H_g, and a defect just above the 1e-12 bound is refused
    n = 6

    def one_element(basis, rows, cols, coupling, value):
        value[np.flatnonzero(coupling == ring_ed.G)[0]] += kick

    basis = TwoExcitationBasis(n)
    rows, cols, coupling, value = ring_ed._hamiltonian_elements(basis)
    value = value.copy()
    one_element(basis, rows, cols, coupling, value)
    h_g = np.zeros((basis.dim, basis.dim))
    np.add.at(h_g, (rows, cols), np.where(coupling == ring_ed.G, value, 0.0))
    t = np.zeros((basis.dim, basis.dim))
    t[ring_ed.translation_operator(n), np.arange(basis.dim)] = 1.0
    defect = np.abs(h_g @ t - t @ h_g).max()
    assert defect > 1e-12
    with pytest.raises(RuntimeError, match=re.escape(f"|[H_g,T]| = {defect:.3g}")):
        _tampered_sector(monkeypatch, one_element, n)


def test_zero_hopping_matches_single_site_levels(monkeypatch):
    # closed-form levels that ignore the coupling's scale agree at g = 1
    # only; the check runs at g = 1.1 to catch that
    monkeypatch.setattr(validation, "jc_pair_levels", lambda p, N: ring_ed.jc_pair_levels(
        dataclasses.replace(p, g=1.0), N))
    assert not run_checks(["ed-jc-levels"])[0].passed


def test_sectors_of_one_ring_size_share_one_layout():
    # two parameter sets in the complex sector n = 10 of the 12-site ring
    # fill from the same read-only layout, built once
    ring_ed.ring_sector.cache_clear()
    ring_ed._sector_layout.cache_clear()
    a = ring_sector(ModelParams(xi=-0.2, delta=0.3, K=np.pi / 3), 12)
    b = ring_sector(ModelParams(xi=-0.5, delta=-1.0, g=1.2, K=np.pi / 3), 12)
    info = ring_ed._sector_layout.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert a.n == b.n == 10 and np.iscomplexobj(a.amplitude)
    assert a.index is b.index and a.amplitude is b.amplitude
    assert not np.array_equal(a.eigenvalues, b.eigenvalues)
    layout = ring_ed._sector_layout(12, 10)
    assert layout[2] is a.index and layout[3] is a.amplitude
    for array in layout[2:]:
        assert isinstance(array, np.ndarray) and not array.flags.writeable


def grid_scatter_embedding(st, N):
    """ring_embedding as a scatter-add over the (r, m) grid of pairs on sites m and m + r.

    Each side's winding is computed on its own, and every grid value is
    summed into its state by bincount, starting from 0.
    """
    basis = TwoExcitationBasis(N)
    K = st.params.K
    right, left = (expansion_winding(st.roots, st.scaled_amplitudes, N, [s * K / 2])[0]
                   for s in (1, -1))
    r = np.arange(N)
    fold = right[(r - 1) % N] + left[(-r - 1) % N] @ PARITY
    fold[0] += st.contact_spinor * np.array([SQRT2, 1.0, 1.0, 1.0])
    p, d_sym, d_asy, t = fold.T[:, :, None]
    com = np.exp(1j * K * r)
    m, other = np.broadcast_arrays(r, r[:, None] + r)
    index = np.concatenate([basis.pp(m, other).ravel(), basis.mix(m, other).ravel(),
                            basis.mix(other, m).ravel(), basis.tt(m[1:], other[1:]).ravel()])
    value = np.concatenate([(com * p).ravel(), (com * (d_sym - d_asy) / SQRT2).ravel(),
                            (com * (d_sym + d_asy) / SQRT2).ravel(), (com * t)[1:].ravel()])
    return np.bincount(index, value.real, minlength=basis.dim) \
        + 1j * np.bincount(index, value.imag, minlength=basis.dim)


@pytest.mark.parametrize("K", [0.0, np.pi / 2, np.pi / 3])
def test_ring_embedding_is_the_grid_scatter_add_bit_for_bit(K):
    compared = 0
    for xi, delta in ((-0.2, -0.5), (-0.3, 1.0), (-0.5, 3.0)):
        p = ModelParams(xi=xi, delta=delta, K=K)
        for gap in band_structure(p).gaps:
            for st in find_bound_states(p, gap):
                for N in (12, 24):
                    psi = ring_embedding(st, N)
                    assert psi.tobytes() == grid_scatter_embedding(st, N).tobytes(), (xi, delta, N)
                    compared += 1
    assert compared >= 8


def audit_reference(params, N, eigenvalues):
    """band_edge_check's attribution, one eigenvalue and one band at a time."""
    tol = 5.0 * params.g / N
    bands = band_structure(params)
    violations, in_gap = [], []
    band_counts = [0] * len(bands.bands)
    for e in eigenvalues:
        for i, band in enumerate(bands.bands):
            if band.lo - tol <= e <= band.hi + tol:
                band_counts[i] += 1
                break
        else:
            gap = bands.gap_at(e)
            deep = gap is not None and gap.contains(e, margin=tol)
            (in_gap if deep else violations).append(float(e))
    return tuple(violations), tuple(in_gap), tuple(band_counts)


@pytest.mark.parametrize("N", [8, 48])
def test_band_edge_audit_matches_the_per_eigenvalue_loop(monkeypatch, N):
    # planted eigenvalues: each margin's ends and the floats just past them,
    # band edges, gap centres, and beyond every band; at N = 8 the 5g/N
    # margins of neighbouring bands overlap across both gaps
    p = ModelParams(xi=-0.2, delta=0.0)
    tol = 5.0 * p.g / N
    bands = band_structure(p)
    ends = [end for band in bands.bands for end in (band.lo - tol, band.hi + tol)]
    planted = np.sort(np.concatenate([
        ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf),
        [end for band in bands.bands for end in (band.lo, band.hi)],
        [0.5 * (gap.lo + gap.hi) for gap in bands.gaps], [-10.0, 10.0]]))
    monkeypatch.setattr(ring_ed, "ring_sector",
                        lambda params, n: types.SimpleNamespace(eigenvalues=planted))
    report = ring_ed.band_edge_check(p, N)
    violations, in_gap, band_counts = audit_reference(p, N, planted)
    assert (report.violations, report.in_gap, report.band_counts) == \
        (violations, in_gap, band_counts)
    assert sum(band_counts) + len(violations) + len(in_gap) == planted.size
    overlap = [e for e in planted
               if sum(b.lo - tol <= e <= b.hi + tol for b in bands.bands) == 2]
    assert bool(overlap) == (N == 8) and bool(in_gap) == (N == 48)


def test_ring_embedding_momentum_compatibility():
    p = ModelParams(xi=-0.2, K=0.7)  # not a multiple of 2 pi / 24
    bs = band_structure(p)
    st = find_bound_states(p, bs.gaps[0])[0]
    with pytest.raises(ParameterError):
        ring_embedding(st, 24)


@pytest.fixture
def filled(monkeypatch):
    """Ring sizes of the sector blocks filled while the test runs."""
    sizes, fill = [], ring_ed._fill_sector

    def counting(geo, *rows):
        sizes.append(geo.basis.N)
        return fill(geo, *rows)

    monkeypatch.setattr(ring_ed, "_fill_sector", counting)
    return sizes


def test_ring_embedding_builds_no_sector(filled):
    # the momentum check of the embedding needs only the K -> n map, not
    # a diagonalized sector: a fresh ring size fills no sector block, and
    # a K that is no momentum of the ring raises before its geometry is built
    ring_ed.ring_sector.cache_clear()
    ring_ed._ring_geometry.cache_clear()
    p = ModelParams(xi=-0.2, delta=-2.0, K=2.0 * np.pi * 3 / 30)
    st = find_bound_states(p, band_structure(p).gaps[0])[0]
    with pytest.raises(ParameterError):
        ring_embedding(st, 31)
    assert ring_ed._ring_geometry.cache_info().misses == 0
    assert ring_embedding(st, 30).shape == (2 * 30 * 30,)
    assert filled == []


def explicit_winding_sum(st, N):
    """The ring vector of st as an explicit sum over separations |l| <= span.

    As model.py defines the spinor, the pair on sites m and m + l carries
    e^{iK(m + l/2)} beta_l, a mixed pair with the TLS on m and the photon
    on m + l holding d_l = d_+ + d_-, and the reverse d_-l = d_+ - d_-;
    span holds whole windings and reaches |z|^span < e^-42 for the slowest
    channel.
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
        np.add.at(psi, basis.mix(m + l, m), (d_sym + d_asy) / SQRT2 * com)
        np.add.at(psi, basis.mix(m, m + l), (d_sym - d_asy) / SQRT2 * com)
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
        first, *rest = compare_bound_state(st, ns)
        return (dataclasses.replace(first, error=0.0), *rest)

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


def test_one_diagonalization_per_ring(filled):
    # both states of one (params, N) and the audit at N = 48 share the
    # memoized sectors: one sector block filled per ring size
    ring_ed.ring_sector.cache_clear()
    p = ModelParams(xi=-0.2, delta=0.0)
    states = [st for gap in band_structure(p).gaps for st in find_bound_states(p, gap)]
    assert len(states) == 2
    for st in states:
        compare_bound_state(st, (24, 48))
    ring_ed.band_edge_check(p, 48)
    assert filled == [24, 48]


def _tampered_sector(monkeypatch, tamper, N=8):
    """ring_sector at N over an element list whose values tamper edits.

    tamper(basis, rows, cols, coupling, value) edits a copy of the element
    values in place; both memos are cleared around the call.
    """
    elements = ring_ed._hamiltonian_elements

    def tampered(basis):
        rows, cols, coupling, value = elements(basis)
        value = value.copy()
        tamper(basis, rows, cols, coupling, value)
        return rows, cols, coupling, value

    monkeypatch.setattr(ring_ed, "_hamiltonian_elements", tampered)
    ring_ed._ring_geometry.cache_clear()
    ring_ed.ring_sector.cache_clear()
    try:
        ring_ed.ring_sector(ModelParams(xi=-0.3, delta=0.4, g=1.2), N)
    finally:
        ring_ed._ring_geometry.cache_clear()
        ring_ed.ring_sector.cache_clear()


def test_ring_sector_rejects_a_coupling_that_breaks_translation(monkeypatch):
    # one hopping value edited at a single element, in a row that no
    # sector block reads: only the per-coupling [H_c, T] check can see it
    def one_element(basis, rows, cols, coupling, value):
        power = ring_ed._orbits(basis, basis.translate())[-1]
        hops = np.flatnonzero((coupling == ring_ed.XI) & (power[rows] != 0))
        value[hops[0]] *= 1.5

    with pytest.raises(RuntimeError, match=re.escape("|[H_xi,T]|")):
        _tampered_sector(monkeypatch, one_element)


def test_ring_sector_rejects_a_covariant_non_hermitian_coupling(monkeypatch):
    # the photon hop of every photon-TLS pair in one direction, scaled over
    # its whole orbit: each H_c still commutes with T, and only the
    # Hermiticity check of the filled block can see it
    def one_direction(basis, rows, cols, coupling, value):
        photon_tls = [np.divmod(i - basis.mix(0, 0), basis.N) for i in (rows, cols)]
        (p_row, t_row), (p_col, t_col) = photon_tls
        mix = (rows >= basis.mix(0, 0)) & (rows < basis.tt(0, 1)) \
            & (cols >= basis.mix(0, 0)) & (cols < basis.tt(0, 1))
        forward = mix & (t_row == t_col) & ((p_row - p_col) % basis.N == 1)
        assert forward.sum() == basis.N * basis.N
        assert (coupling[forward] == ring_ed.XI).all()
        value[forward] *= 1.5

    with pytest.raises(RuntimeError, match="not Hermitian"):
        _tampered_sector(monkeypatch, one_direction)


def test_ring_sector_of_K():
    # a plane wave e^{iK m} over the pair's sites has T-eigenvalue e^{-iK}
    # (T moves every state one site on); the sector picked for K must hold
    # it, and T acts on that sector's basis as e^{i momentum}
    N, K = 24, 2.0 * np.pi * 3 / 24
    sector = ring_ed.ring_sector(ModelParams(xi=-0.2, K=K), N)
    basis, m = TwoExcitationBasis(N), np.arange(N)
    psi = np.zeros(basis.dim, dtype=complex)
    psi[basis.mix(m + 2, m)] = np.exp(1j * K * (m + 1.0))
    step = ring_ed.translation_operator(N)
    moved = np.zeros_like(psi)
    moved[step] = psi
    assert np.abs(moved - np.exp(-1j * K) * psi).max() < 1e-14
    proj = sector.to_full(np.eye(sector.dim))
    assert np.linalg.norm(proj @ (proj.conj().T @ psi) - psi) < 1e-13 * np.linalg.norm(psi)
    moved = np.zeros_like(proj)
    moved[step] = proj
    assert np.abs(moved - np.exp(1j * sector.momentum) * proj).max() < 1e-14
    assert (sector.N, sector.n) == (24, 21)


def test_ed_bound_agreement_needs_the_sector_of_K(monkeypatch):
    # sectors n and -n share a spectrum, so only the K = pi/2 overlap clause
    # can tell them apart: mapping K to +K N / 2 pi must fail the check
    real = ring_ed._sector_of
    monkeypatch.setattr(ring_ed, "_sector_of", lambda K, N: -real(K, N) % N)
    ring_ed.ring_sector.cache_clear()
    try:
        assert not run_checks(["ed-bound-agreement"])[0].passed
    finally:
        ring_ed.ring_sector.cache_clear()


def test_audit_counts_the_certified_states():
    # over the ed_oracle benchmark's detunings, the audit's expected in-gap
    # count is the number of certified states the bound sweep reports
    deltas = [j / 16 for j in range(-12, 13)]
    for pt in bound_sweep(-0.2, deltas, K=0.0, jobs=1):
        report = ring_ed.band_edge_check(pt.params, 48)
        assert report.expected_bound_count == sum(map(len, pt.states)), pt.delta


# Audit reports computed with the expected count taken as len(find_bound_states)
# summed over the gaps; the inertia count must reproduce every field.
AUDIT_REPORTS = {
    (-0.2, 0.0, 0.0, 24): ((-1.3034485514728662, 1.3034485514728673), (12, 23, 12)),
    (-0.2, -0.5, np.pi / 2, 48): ((-1.697244271418598, 1.0484932027115763), (24, 47, 24)),
}


def test_audit_searches_for_no_state(monkeypatch):
    # the expected count is the inertia count; the audit runs no search
    def refuse(params, gap):
        raise AssertionError("the audit searched for bound states")

    monkeypatch.setattr(bound_states, "find_bound_states", refuse)
    monkeypatch.setattr(ring_ed, "find_bound_states", refuse, raising=False)
    for (xi, delta, K, N), (in_gap, band_counts) in AUDIT_REPORTS.items():
        rep = ring_ed.band_edge_check(ModelParams(xi=xi, delta=delta, K=K), N)
        assert (rep.N, rep.violations, rep.expected_bound_count) == (N, (), 2)
        assert rep.band_counts == band_counts
        assert np.abs(np.array(rep.in_gap) - in_gap).max() <= 1e-12
        assert rep.ok


def inertia_mismatches(draws=45, seed=27):
    """Gaps compared, and those where the audit's count (ring_ed._gap_counts)
    differs from len(find_bound_states), over seeded random draws: a third
    at K = 0, a third with |xi| < 1e-3."""
    rng = np.random.default_rng(seed)
    compared, wrong = 0, []
    for i in range(draws):
        p = validation._draw_params(rng, k_zero=i % 3 == 0)
        if i % 3 == 1:
            p = dataclasses.replace(p, xi=1e-3 * p.xi)
        gaps = band_structure(p).gaps
        for gap, count in zip(gaps, ring_ed._gap_counts(p, gaps)):
            compared += 1
            if count != len(find_bound_states(p, gap)):
                wrong.append((p, gap.index, count))
    return compared, wrong


def test_audit_count_is_the_certified_count(monkeypatch, overcount):
    compared, wrong = inertia_mismatches()
    assert compared > 60 and wrong == []
    # one sign change too many: every gap disagrees, and ed-band-edges fails
    monkeypatch.setattr(ring_ed, "_gap_counts", overcount)
    compared, wrong = inertia_mismatches(draws=6)
    assert len(wrong) == compared > 0
    assert not run_checks(["ed-band-edges"])[0].passed


def test_cached_sector_is_read_only():
    sector = ring_ed.ring_sector(ModelParams(xi=-0.2), 12)
    for array in (sector.eigenvalues, sector.eigenvectors, sector.index, sector.amplitude):
        with pytest.raises(ValueError):
            array[0] = 0


def test_one_geometry_record_per_ring_size():
    # the comparisons and audits of every ed_oracle benchmark detuning at
    # the three oracle ring sizes build each size's geometry once
    ring_ed.ring_sector.cache_clear()
    ring_ed._ring_geometry.cache_clear()
    sizes = (24, 48, 64)
    for delta in (j / 16 for j in range(-12, 13)):
        p = ModelParams(xi=-0.2, delta=delta)
        for gap in band_structure(p).gaps:
            for st in find_bound_states(p, gap):
                for n in sizes:
                    compare_bound_state(st, (n,))
        for n in sizes:
            ring_ed.band_edge_check(p, n)
    info = ring_ed._ring_geometry.cache_info()
    assert (info.misses, info.currsize) == (3, 3)


def test_hamiltonian_leaks_nothing_through_the_shared_geometry():
    # every caller gets the same record, so none of its arrays can be written
    geometry = ring_ed._ring_geometry(8)
    for field in dataclasses.fields(geometry)[1:]:
        with pytest.raises(ValueError):
            getattr(geometry, field.name)[0] = 0
