"""Brute-force oracle: the two-excitation sector of a finite periodic ring.

Every analytic result in this package ultimately reduces to statements
about the infinite-chain Hamiltonian.  This module diagonalizes the same
Hamiltonian exactly on a ring of N cavities, with no spinor formalism in
common with the solver modules, so agreement is genuine evidence.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bands import band_structure
from .bound_states import BoundState, _gap_counts
from .errors import OracleMismatchError, ParameterError
from .channels import expansion_winding
from .model import PARITY, SQRT2, ModelParams

__all__ = [
    "TwoExcitationBasis",
    "build_hamiltonian",
    "translation_operator",
    "ring_sector",
    "ring_embedding",
    "compare_bound_state",
    "band_edge_check",
    "jc_pair_levels",
]


FAMILIES = ("pp", "mix", "tt")


class TwoExcitationBasis:
    """Ordered basis of the N = 2 polariton sector on a ring.

    Three families: photon pairs a_m+ a_n+ |G> with m <= n (the m = n
    state carries 1/sqrt(2)), photon-TLS products over all (m, n), and
    TLS pairs with m < n (one TLS cannot be excited twice).  Each family
    is ordered by (m, n), so every index is closed-form; the lookups take
    site arrays and wrap them onto the ring.
    """

    def __init__(self, N: int):
        if N < 3:
            raise ParameterError(f"ring needs at least 3 cavities, got {N}")
        self.N = int(N)
        self.dim = 2 * self.N * self.N
        self._pairs = self.N * (self.N + 1) // 2

    def sites(self, kind: str):
        """Site arrays (m, n) of one family's states, in basis order."""
        if kind == "mix":
            return np.divmod(np.arange(self.N * self.N), self.N)
        return np.triu_indices(self.N, 0 if kind == "pp" else 1)

    def _ordered(self, m, n):
        m, n = np.mod(m, self.N), np.mod(n, self.N)
        return np.minimum(m, n), np.maximum(m, n)

    def pp(self, m, n):
        a, b = self._ordered(m, n)
        return a * self.N - a * (a - 1) // 2 + (b - a)

    def mix(self, photon, tls):
        return self._pairs + np.mod(photon, self.N) * self.N + np.mod(tls, self.N)

    def tt(self, m, n):
        a, b = self._ordered(m, n)
        if np.any(a == b):
            raise ValueError("one TLS cannot be excited twice")
        return (self._pairs + self.N * self.N + a * (self.N - 1)
                - a * (a - 1) // 2 + (b - a - 1))

    def translate(self):
        """The index of every state moved one site along the ring, in basis order."""
        moved = [getattr(self, kind)(*np.add(self.sites(kind), 1)) for kind in FAMILIES]
        return np.concatenate(moved)


#: Ring sizes whose geometry _ring_geometry keeps: the three sizes one
#: oracle run compares at, and one more.
RINGS_KEPT = 4

#: The couplings H is linear in, in the order of _RingGeometry.rep_weight's rows.
XI, G, DELTA = range(3)


@dataclass(frozen=True, eq=False)
class _RingGeometry:
    """Everything about the N-site ring that no parameter changes.

    ``step`` is the site shift T as a permutation (translation_operator), and
    (length, orbit, power) are its orbits (_orbits).  Row j of (residue, site)
    is each state's j-th preimage in the (r, m) grid of pairs on sites m and
    m + r, which ring_embedding gathers: its residue-table entry and m, or
    the table's zero slot for the second of a photon pair on one cavity.
    (rep_row, rep_orbit, rep_col, rep_weight) are H's elements in
    the rows of the orbits' first states, in (row, col) order: the row's
    orbit a, the column's orbit b, the column, and per coupling the value
    times sqrt(L_a/L_b), so that (xi, g, delta) @ rep_weight are the
    weights _fill_sector fills a sector block from.  Every array is
    read-only: _ring_geometry hands the same record to every caller.
    """

    basis: TwoExcitationBasis
    step: np.ndarray
    length: np.ndarray
    orbit: np.ndarray
    power: np.ndarray
    residue: np.ndarray
    site: np.ndarray
    rep_row: np.ndarray
    rep_orbit: np.ndarray
    rep_col: np.ndarray
    rep_weight: np.ndarray


def _hamiltonian_elements(basis: TwoExcitationBasis):
    """Every generated element of H as (row, col, coupling, value) arrays.

    H = xi H_xi + g H_g + delta H_delta, and the element sits in
    H_coupling (XI, G or DELTA) with that value.  Element conventions:
    photon energy is the zero of the rotating frame, a TLS excitation
    costs delta, the vertical coupling is g with the sqrt(2) enhancement on
    doubly occupied photon states, and photons hop with amplitude xi
    between neighbors.  Each column's elements are generated from that
    column's state, one family at a time, so both orientations of every
    off-diagonal element are generated independently and Hermiticity of
    every H built on them checks the matrix-element algebra.
    """
    N = basis.N
    rows, cols, couplings, values = [], [], [], []

    def put(r, c, coupling, v):
        rows.append(r)
        cols.append(c)
        couplings.append(np.full(np.size(c), coupling))
        values.append(np.broadcast_to(v, np.shape(c)))

    m, n = basis.sites("pp")
    col = basis.pp(m, n)
    one = m == n
    put(basis.mix(m[one], m[one]), col[one], G, SQRT2)
    for step in (1, -1):
        put(basis.pp(m[one] + step, m[one]), col[one], XI, SQRT2)
    m, n, col = m[~one], n[~one], col[~one]
    put(basis.mix(n, m), col, G, 1.0)
    put(basis.mix(m, n), col, G, 1.0)
    for site, other in ((m, n), (n, m)):
        for step in (1, -1):
            dest = (site + step) % N
            put(basis.pp(dest, other), col, XI, np.where(dest == other, SQRT2, 1.0))

    m, n = basis.sites("mix")
    col = basis.mix(m, n)
    put(col, col, DELTA, 1.0)
    one = m == n
    put(basis.pp(m[one], m[one]), col[one], G, SQRT2)
    put(basis.pp(m[~one], n[~one]), col[~one], G, 1.0)
    put(basis.tt(m[~one], n[~one]), col[~one], G, 1.0)
    for step in (1, -1):
        put(basis.mix(m + step, n), col, XI, 1.0)

    m, n = basis.sites("tt")
    col = basis.tt(m, n)
    put(col, col, DELTA, 2.0)
    put(basis.mix(m, n), col, G, 1.0)
    put(basis.mix(n, m), col, G, 1.0)
    return tuple(np.concatenate(part) for part in (rows, cols, couplings, values))


def _check_commutators(step, rows, cols, coupling, value) -> None:
    """Raise RuntimeError unless every H_c commutes with the site shift T exactly.

    T is the permutation ``step``, so relabelling each element's row and
    column through it gives T H_c T^-1, and max|T H_c T^-1 - H_c| =
    max|H_c T - T H_c|.  One sort of the (coupling, row, col) keys of both
    sides, all three couplings at once, and one sum per key of the moved
    values less the unmoved ones give every element of the three
    commutators.  A nonzero commutator means the Hamiltonian was not built
    translation-covariantly, which is an implementation bug, not a data
    condition.
    """
    dim = step.size
    keys = np.concatenate([(coupling * dim + rows) * dim + cols,
                           (coupling * dim + step[rows]) * dim + step[cols]])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    comm = np.abs(np.add.reduceat(np.concatenate([-value, value])[order], starts))
    of = keys[starts] // (dim * dim)
    for c, name in enumerate(("xi", "g", "delta")):
        norm = comm[of == c].max(initial=0.0)
        if norm > 1e-12:
            raise RuntimeError(
                f"H_{name} does not commute with translation: |[H_{name},T]| = {norm:.3g}"
            )


@functools.lru_cache(maxsize=RINGS_KEPT)
def _ring_geometry(N: int) -> _RingGeometry:
    """The read-only _RingGeometry of the N-site ring, built once per N.

    Each coupling's matrix H_c is checked to commute with T exactly
    (_check_commutators), so every H = xi H_xi + g H_g + delta H_delta
    does: ring_sector fills its blocks from the representative elements
    here with no [H, T] pass of its own.  Those are the elements whose row
    is an orbit's first state (power 0).  ring_sector and ring_embedding
    read the record; the RINGS_KEPT most recent ring sizes are kept
    (_ring_geometry.cache_clear() empties the memo).
    """
    basis = TwoExcitationBasis(N)
    rows, cols, coupling, value = _hamiltonian_elements(basis)
    step = basis.translate()
    _check_commutators(step, rows, cols, coupling, value)
    length, orbit, power = _orbits(basis, step)
    rep = np.flatnonzero(power[rows] == 0)
    rep = rep[np.lexsort((cols[rep], rows[rep]))]
    rep_row, rep_col = orbit[rows[rep]], cols[rep]
    rep_orbit = orbit[rep_col]
    rep_weight = np.zeros((3, rep.size))
    rep_weight[coupling[rep], np.arange(rep.size)] = \
        value[rep] * np.sqrt(length[rep_row] / length[rep_orbit])
    r = np.arange(N)
    # (r, m) grid of the pair on sites m and m + r; r = 0 has no TLS pair
    m, other = np.broadcast_arrays(r, r[:, None] + r)
    state = np.concatenate([basis.pp(m, other).ravel(), basis.mix(m, other).ravel(),
                            basis.mix(other, m).ravel(), basis.tt(m[1:], other[1:]).ravel()])
    # slot f N^2 + r N + m of family f reads table entry f N + r, and the
    # last slot the zero slot 4N; each state's preimages in slot order
    slot = np.append(np.delete(np.arange(4 * N * N), np.s_[3 * N * N:3 * N * N + N]), 4 * N * N)
    order = np.append(np.argsort(state, kind="stable"), -1)
    count = np.bincount(state)
    first = np.cumsum(count) - count
    pick = slot[order[np.stack([first, np.where(count == 2, first + 1, -1)])]]
    geometry = _RingGeometry(basis, step, length, orbit, power, pick // N, pick % N,
                             rep_row, rep_orbit, rep_col, rep_weight)
    for field in dataclasses.fields(geometry)[1:]:     # every array
        getattr(geometry, field.name).flags.writeable = False
    return geometry


def build_hamiltonian(N: int, params: ModelParams) -> np.ndarray:
    """Dense two-excitation Hamiltonian of the ring (K plays no role here).

    The reference H of the oracle's own checks, at N <= 8 (dim 2 N^2 <= 128),
    assembled at call time from _hamiltonian_elements (which states the
    element conventions), repeated elements summed; the sectors ring_sector
    fills never build it.
    """
    basis = TwoExcitationBasis(N)
    rows, cols, coupling, value = _hamiltonian_elements(basis)
    h = np.zeros((basis.dim, basis.dim))
    np.add.at(h, (rows, cols), np.array([params.xi, params.g, params.delta])[coupling] * value)
    return h


def translation_operator(N: int) -> np.ndarray:
    """The site shift T of the N-site ring as the permutation ``step``: T|i> = |step[i]>.

    T psi is ``out[step] = psi``, and T^-1 H T is H[np.ix_(step, step)]; no
    matrix is built, which at N = 48 would hold 4608^2 entries.  The array
    is the ring's _RingGeometry.step, read-only and shared by every caller.
    """
    return _ring_geometry(N).step


@dataclass(frozen=True)
class MomentumSector:
    """One diagonalized total-momentum block of the N-site ring Hamiltonian.

    The projector P (sector basis -> full basis) has at most one nonzero per row,
    so it is kept as a gather: full-basis state i takes amplitude[i] times
    sector component index[i], and states outside the sector have
    amplitude 0 (to_full).  Its arrays are read-only: ring_sector hands the
    same sector to every caller.
    """

    N: int
    n: int
    momentum: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray        # columns, in the sector basis
    index: np.ndarray               # (dim_full,) sector component of each state
    amplitude: np.ndarray           # (dim_full,) P's entry in that column, 0 outside

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def to_full(self, vectors) -> np.ndarray:
        """P @ vectors: sector-basis vector(s), 1-D or as columns, in the full basis.

        A complex amplitude multiplies in real arithmetic, (ac - bd) + i(ad + bc),
        since numpy's complex product may fuse its terms (FMA) on one CPU and
        not on another: the vector is the same, bit for bit, on every host.
        """
        vectors = np.asarray(vectors)
        amplitude = self.amplitude if vectors.ndim == 1 else self.amplitude[:, None]
        picked = vectors[self.index]
        if not np.iscomplexobj(amplitude):
            return amplitude * picked
        a, b = amplitude.real, amplitude.imag
        out = np.empty(picked.shape, dtype=complex)
        out.real = a * picked.real - b * picked.imag
        out.imag = a * picked.imag + b * picked.real
        return out

    def nearest_in_gap(self, state: BoundState):
        """The sector eigenpair paired with an analytic bound state.

        The eigenvalue is the one inside the state's gap nearest its
        energy; its eigenvector is returned in the full ring basis.
        """
        gap = state.gap
        inside = np.flatnonzero((self.eigenvalues > gap.lo) & (self.eigenvalues < gap.hi))
        if not inside.size:
            raise OracleMismatchError(
                f"no ring eigenvalue inside gap ({gap.lo:.6g}, {gap.hi:.6g}) "
                f"at N = {self.N}"
            )
        pick = inside[np.argmin(np.abs(self.eigenvalues[inside] - state.energy))]
        return float(self.eigenvalues[pick]), self.to_full(self.eigenvectors[:, pick])


def _orbits(basis: TwoExcitationBasis, step: np.ndarray):
    """Translation orbits of the basis under the site shift ``step``.

    Each orbit's lowest index, its first state, is a state (0, d): d <= N/2
    for the unordered pairs, any d for photon-TLS products.  Taken in basis
    order they number the orbits in the order a scan of the basis meets
    them.  Returns each orbit's length (N, or N/2 for an unordered pair at
    antipodal separation), and for every basis state its orbit and the
    power j with state = T^j first[orbit].
    """
    N, half = basis.N, basis.N // 2
    first = np.concatenate([basis.pp(0, np.arange(half + 1)),
                            basis.mix(0, np.arange(N)),
                            basis.tt(0, np.arange(1, half + 1))])
    powers = np.empty((N, first.size), dtype=int)
    powers[0] = first
    for j in range(1, N):
        powers[j] = step[powers[j - 1]]
    back = powers[1:] == first
    length = np.where(back.any(axis=0), back.argmax(axis=0) + 1, N)
    j, o = np.nonzero(np.arange(N)[:, None] < length)
    orbit, power = np.empty(basis.dim, dtype=int), np.empty(basis.dim, dtype=int)
    orbit[powers[j, o]] = o
    power[powers[j, o]] = j
    return length, orbit, power


@functools.lru_cache(maxsize=RINGS_KEPT)
def _sector_layout(N: int, n: int) -> tuple:
    """What sector n of the N-site ring is filled from, whatever the couplings.

    Element i of _ring_geometry(N) sits in row first[a_i] (a_i = rep_row),
    column col_i = T^{m_i} first[b_i], with weight_i = H[first[a_i], col_i]
    sqrt(L_a/L_b).  Sector n (k = 2 pi n / N) keeps the orbits with
    e^{ik L} = 1: its block[a, b] = sum_i weight_i e^{-ik m_i}, and its
    projector gives state T^j first[o] amplitude e^{-ik j} / sqrt(L_o) in
    the column of o (0 if o is not kept), all real when 2n = 0 (mod N).
    Returns (k, size, index, amplitude, keep, cell, col_phase): the
    projector's gather (shared by every MomentumSector of (N, n)), and the
    elements inside the block, their cells row * size + col and e^{-ik m_i},
    all read-only.  The RINGS_KEPT most recent (N, n) are kept
    (_sector_layout.cache_clear() empties the memo).
    """
    geo = _ring_geometry(N)
    length, orbit, power, a, b = geo.length, geo.orbit, geo.power, geo.rep_row, geo.rep_orbit
    k = 2.0 * math.pi * n / N
    kept = (n * length) % N == 0
    index = np.cumsum(kept) - 1
    size = int(index[-1]) + 1
    if (2 * n) % N == 0:
        phase = 1.0 - 2.0 * ((2 * n // N * power) % 2)
    else:
        phase = np.exp(-1j * k * power)
    inside = kept[orbit]
    keep = kept[a] & kept[b]
    layout = (k, size, np.where(inside, index[orbit], 0),
              np.where(inside, phase / np.sqrt(length[orbit]), 0.0), keep,
              index[a[keep]] * size + index[b[keep]], phase[geo.rep_col[keep]])
    for array in layout[2:]:
        array.flags.writeable = False
    return layout


def _fill_sector(geo: _RingGeometry, n: int, weight) -> MomentumSector:
    """Diagonalize sector n from the weights of H's representative elements.

    One bincount over the cells of _sector_layout(N, n) fills the block.
    Row first[a] fills block[a, b] and row first[b] fills block[b, a], so
    the exact Hermiticity check tests the element algebra.
    """
    k, size, index, amplitude, keep, cell, col_phase = _sector_layout(geo.basis.N, n)
    terms = weight[keep] * col_phase
    block = np.bincount(cell, terms.real, minlength=size * size)
    if np.iscomplexobj(terms):
        block = block + 1j * np.bincount(cell, terms.imag, minlength=size * size)
    block = block.reshape(size, size)
    herm = np.abs(block - block.conj().T).max()
    if herm > 1e-13:
        raise RuntimeError(f"momentum block n={n} not Hermitian: defect {herm:.3g}")
    vals, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
    for arr in (vals, vecs):
        arr.flags.writeable = False
    return MomentumSector(N=geo.basis.N, n=n, momentum=k, eigenvalues=vals, eigenvectors=vecs,
                          index=index, amplitude=amplitude)


#: Diagonalized sectors ring_sector keeps: enough for the three ring sizes
#: both states of one detuning are compared at, so those comparisons and
#: the audit share one diagonalization per ring size.
SECTORS_KEPT = 4


def _sector_of(K: float, N: int) -> int:
    """Ring sector n = -K N / 2 pi (mod N) of total momentum K.

    T (every state moved one site on) has eigenvalue e^{-iK} on a pair of
    amplitude e^{iK m} at centre site m, and e^{+i k_n} on sector n's
    sum_j e^{-i k_n j} T^j |s>: so k_n = -K.  The package's only map from K
    to a sector; a K that is no ring momentum raises ParameterError.
    """
    n_k = K * N / (2.0 * math.pi)
    if abs(n_k - round(n_k)) > 1e-9:
        raise ParameterError(f"K = {K} is not a ring momentum for N = {N}")
    return -int(round(n_k)) % N


@functools.lru_cache(maxsize=SECTORS_KEPT)
def ring_sector(params: ModelParams, N: int) -> MomentumSector:
    """The diagonalized sector of the N-site ring that holds momentum params.K.

    The ring's only sector fill.  The sector is n = _sector_of(K, N).  H is
    linear in its couplings, so its representative-element weights are
    (xi, g, delta) @ rep_weight of the ring's _RingGeometry, whose
    couplings were each checked to commute with T exactly; _fill_sector
    fills and diagonalizes that one block, with the exact Hermiticity
    check.  No H is built.  The SECTORS_KEPT most recent (params, N) are
    memoized (ring_sector.cache_clear() empties the memo).
    """
    n = _sector_of(params.K, N)
    geo = _ring_geometry(N)
    return _fill_sector(geo, n, np.array([params.xi, params.g, params.delta]) @ geo.rep_weight)


def ring_embedding(state: BoundState, N: int) -> np.ndarray:
    """Wrap the infinite-chain bound state onto the ring basis.

    The pair on sites m and m + l carries e^{iK(m + l/2)} beta_l (a mixed
    pair with the TLS on m and the photon on m + l, the l of model.py), and
    separations equal mod N reach the same ring states: residue r collects
    sum_{l = r mod N} e^{iKl/2} beta_l, the closed-form windings of each
    side of the contact (channels.expansion_winding; l < 0 via PARITY).
    Only local conversions follow: the sqrt(2) of a doubly occupied cavity,
    no doubly excited TLS.  Returned vector is unnormalized.  A K that is
    no momentum of the ring raises ParameterError (_sector_of, the map
    ring_sector uses); nothing is built or diagonalized.
    """
    params = state.params
    _sector_of(params.K, N)
    geo = _ring_geometry(N)
    right, left = expansion_winding(state.roots, state.scaled_amplitudes, N,
                                    [s * params.K / 2 for s in (1, -1)])
    r = np.arange(N)
    fold = right[(r - 1) % N] + left[(-r - 1) % N] @ PARITY
    # l = 0: its photon pair shares a cavity; its d_+ reaches mix(m, m)
    # through both mixed terms below, whose sum supplies the sqrt(2)
    fold[0] += state.contact_spinor * np.array([SQRT2, 1.0, 1.0, 1.0])
    p, d_sym, d_asy, t = fold.T
    # the photon on m + r and TLS on m hold d_r = d_+ + d_-, the reverse d_-r
    table = np.concatenate([p, d_sym - d_asy, d_sym + d_asy, t, [0.0]])
    # each state's two preimages in the ring's (r, m) grid (_ring_geometry)
    value = np.exp(1j * params.K * r)[geo.site] * table[geo.residue]
    mixed = geo.basis.mix(0, 0)
    value[:, mixed:mixed + N * N] /= SQRT2
    # + 0.0: a zero sum takes the sign a scatter-add from 0 gives it
    return value[0] + value[1] + 0.0


@dataclass(frozen=True)
class OracleComparison:
    """Finite-size agreement row for one ring size."""

    N: int
    energy: float
    error: float
    overlap: float


def compare_bound_state(analytic: BoundState, N_list) -> tuple:
    """Match the analytic bound state against rings of increasing size.

    For each N, picks the eigenvalue of the matching momentum sector
    nearest the analytic energy inside the state's gap and computes the
    overlap with the wrapped analytic wavefunction.  Errors are expected
    to fall with N.
    """
    gap = analytic.gap
    if not gap.contains(analytic.energy):
        raise OracleMismatchError(
            f"analytic energy {analytic.energy} is not inside its gap "
            f"({gap.lo:.6g}, {gap.hi:.6g})"
        )
    rows = []
    for N in N_list:
        energy, vec_full = ring_sector(analytic.params, N).nearest_in_gap(analytic)
        psi = ring_embedding(analytic, N)
        ov = abs(np.vdot(vec_full, psi)) ** 2 / np.vdot(psi, psi).real
        rows.append(OracleComparison(N=int(N), energy=energy, overlap=float(ov),
                                     error=float(abs(energy - analytic.energy))))
    return tuple(rows)


@dataclass(frozen=True)
class EdgeCheckReport:
    """Spectral placement audit of the ring sector of the total momentum K."""

    N: int
    violations: tuple        # eigenvalues neither near a band nor deep in a gap
    in_gap: tuple            # eigenvalues strictly inside gaps (by the margin)
    expected_bound_count: int
    band_counts: tuple       # eigenvalues attributed to each band, low to high

    @property
    def ok(self) -> bool:
        return not self.violations and \
            len(self.in_gap) == self.expected_bound_count


def band_edge_check(params: ModelParams, N: int) -> EdgeCheckReport:
    """Audit the ring sector of params.K against the bands and gaps at K.

    Finite-size effects push edge states out of the bands by O(1/N), so
    band membership carries a 5g/N margin; an eigenvalue must clear the
    same margin inside a gap to count as a bound-state candidate.  The
    expected count is the inertia count of S(E) between each gap's inset
    ends (bound_states._gap_counts: one stacked evaluation of every end, with
    its determinant certificate), the count find_bound_states starts from and
    returns that many states for; no state is searched for here.
    """
    tol = 5.0 * params.g / N
    bands = band_structure(params)
    sector = ring_sector(params, N)
    expected = sum(_gap_counts(params, bands.gaps))
    e = sector.eigenvalues
    lo, hi = np.array([(band.lo - tol, band.hi + tol) for band in bands.bands]).T
    near = (lo <= e[:, None]) & (e[:, None] <= hi)    # the first band that holds claims e
    claimed = near.any(axis=1)
    band_counts = np.bincount(near.argmax(axis=1)[claimed], minlength=len(bands.bands))
    violations, in_gap = [], []
    for value in e[~claimed]:
        gap = bands.gap_at(value)
        deep = gap is not None and gap.contains(value, margin=tol)
        (in_gap if deep else violations).append(float(value))
    return EdgeCheckReport(
        N=int(N), violations=tuple(violations), in_gap=tuple(in_gap),
        expected_bound_count=int(expected), band_counts=tuple(band_counts.tolist()),
    )


def jc_pair_levels(params: ModelParams, N: int) -> tuple:
    """Closed-form two-excitation spectrum of the uncoupled (xi = 0) ring.

    Two excitations either share a cavity (the n = 2 dressed doublet) or
    occupy two independent cavities (sums of n = 1 dressed energies).
    Returns (energy, multiplicity) pairs, merged when values coincide.
    """
    d, g = params.delta, params.g
    one = [0.5 * (d + s * math.sqrt(d * d + 4.0 * g * g)) for s in (1, -1)]
    two = [0.5 * (d + s * math.sqrt(d * d + 8.0 * g * g)) for s in (1, -1)]
    pairs = N * (N - 1) // 2
    raw = sorted([(one[0] + one[0], pairs), (one[0] + one[1], 2 * pairs),
                  (one[1] + one[1], pairs), (two[0], N), (two[1], N)])
    merged = []
    for e, mult in raw:
        if merged and abs(e - merged[-1][0]) < 1e-12 * max(1.0, params.g):
            merged[-1][1] += mult
        else:
            merged.append([e, mult])
    return tuple((float(e), int(m)) for e, m in merged)
