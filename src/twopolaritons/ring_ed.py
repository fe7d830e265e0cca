"""Brute-force oracle: the two-excitation sector of a finite periodic ring.

Every analytic result in this package ultimately reduces to statements
about the infinite-chain Hamiltonian.  This module diagonalizes the same
Hamiltonian exactly on a ring of N cavities, with no spinor formalism in
common with the solver modules, so agreement is genuine evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bands import band_structure
from .bound_states import BoundState, find_bound_states
from .errors import OracleMismatchError, ParameterError
from .channels import expansion_winding
from .model import PARITY, SQRT2, ModelParams

__all__ = [
    "TwoExcitationBasis",
    "build_hamiltonian",
    "translation_operator",
    "momentum_blocks",
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

    def translate(self, i):
        """Index of state(s) i moved one site along the ring."""
        moved = [getattr(self, kind)(*np.add(self.sites(kind), 1)) for kind in FAMILIES]
        return np.concatenate(moved)[i]


def build_hamiltonian(N: int, params: ModelParams) -> sp.csr_matrix:
    """Sparse two-excitation Hamiltonian of the ring (K plays no role here).

    Element conventions: photon energy is the zero of the rotating frame,
    a TLS excitation costs delta, the vertical coupling is g with the
    sqrt(2) enhancement on doubly occupied photon states, and photons hop
    with amplitude xi between neighbors.  Each column's elements are
    generated from that column's state, one family at a time, so both
    orientations of every off-diagonal element are generated
    independently and Hermiticity of the result checks the matrix-element
    algebra.
    """
    basis = TwoExcitationBasis(N)
    g, xi, delta = params.g, params.xi, params.delta
    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(np.broadcast_to(v, np.shape(c)))

    m, n = basis.sites("pp")
    col = basis.pp(m, n)
    one = m == n
    put(basis.mix(m[one], m[one]), col[one], SQRT2 * g)
    for step in (1, -1):
        put(basis.pp(m[one] + step, m[one]), col[one], SQRT2 * xi)
    m, n, col = m[~one], n[~one], col[~one]
    put(basis.mix(n, m), col, g)
    put(basis.mix(m, n), col, g)
    for site, other in ((m, n), (n, m)):
        for step in (1, -1):
            dest = (site + step) % N
            put(basis.pp(dest, other), col, np.where(dest == other, SQRT2 * xi, xi))

    m, n = basis.sites("mix")
    col = basis.mix(m, n)
    put(col, col, delta)
    one = m == n
    put(basis.pp(m[one], m[one]), col[one], SQRT2 * g)
    put(basis.pp(m[~one], n[~one]), col[~one], g)
    put(basis.tt(m[~one], n[~one]), col[~one], g)
    for step in (1, -1):
        put(basis.mix(m + step, n), col, xi)

    m, n = basis.sites("tt")
    col = basis.tt(m, n)
    put(col, col, 2.0 * delta)
    put(basis.mix(m, n), col, g)
    put(basis.mix(n, m), col, g)

    h = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim), dtype=float,
    )
    h.sum_duplicates()
    return h


def translation_operator(N: int) -> sp.csr_matrix:
    basis = TwoExcitationBasis(N)
    cols = np.arange(basis.dim)
    return sp.csr_matrix((np.ones(basis.dim), (basis.translate(cols), cols)),
                         shape=(basis.dim, basis.dim))


@dataclass(frozen=True)
class MomentumSector:
    """One total-momentum block of the ring Hamiltonian."""

    n: int
    momentum: float
    block: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray        # columns, in the sector basis
    projector: sp.csr_matrix        # sector basis -> full basis

    @property
    def dim(self) -> int:
        return self.block.shape[0]


def _orbits(basis: TwoExcitationBasis):
    """Translation orbits as the powers T^j of each orbit's first state.

    Each orbit's lowest index is a state (0, d): d <= N/2 for the unordered
    pairs, any d for photon-TLS products.  Taken in basis order they start
    the orbits in the order a scan of the basis meets them.  Returns the
    member states orbit by orbit, each member's power j and each orbit's
    length: N, or N/2 for an unordered pair at antipodal separation.
    """
    N, half = basis.N, basis.N // 2
    first = np.concatenate([basis.pp(0, np.arange(half + 1)),
                            basis.mix(0, np.arange(N)),
                            basis.tt(0, np.arange(1, half + 1))])
    step = basis.translate(np.arange(basis.dim))
    powers = np.empty((N, first.size), dtype=int)
    powers[0] = first
    for j in range(1, N):
        powers[j] = step[powers[j - 1]]
    back = powers[1:] == first
    length = np.where(back.any(axis=0), back.argmax(axis=0) + 1, N)
    member = np.arange(N)[:, None] < length
    return powers.T[member.T], np.nonzero(member.T)[1], length


def momentum_blocks(h: sp.spmatrix, N: int, only=None) -> list:
    """Block-diagonalize the ring Hamiltonian over total momentum.

    The translation operator is a permutation; its orbits give the
    momentum basis directly, including the short orbits of antipodal
    pair states.  A nonzero commutator means the Hamiltonian was not
    built translation-covariantly, which is an implementation bug, not
    a data condition.
    """
    basis = TwoExcitationBasis(N)
    t1 = translation_operator(N)
    comm = (h @ t1 - t1 @ h)
    norm = abs(comm).max() if comm.nnz else 0.0
    if norm > 1e-12:
        raise RuntimeError(
            f"Hamiltonian does not commute with translation: |[H,T]| = {norm:.3g}"
        )
    states, power, length = _orbits(basis)
    orbit = np.repeat(np.arange(length.size), length)
    wanted = range(N) if only is None else only
    sectors = []
    for n in wanted:
        k = 2.0 * math.pi * n / N
        kept = (n * length) % N == 0
        col = np.cumsum(kept) - 1
        rows = kept[orbit]
        phase = np.exp(-1j * k * power[rows]) / np.sqrt(length[orbit[rows]])
        proj = sp.csr_matrix(
            (phase, (states[rows], col[orbit[rows]])),
            shape=(basis.dim, int(kept.sum())), dtype=complex,
        )
        block = (proj.getH() @ (h @ proj)).toarray()
        herm = np.abs(block - block.conj().T).max()
        if herm > 1e-13:
            raise RuntimeError(
                f"momentum block n={n} not Hermitian: defect {herm:.3g}"
            )
        block = 0.5 * (block + block.conj().T)
        vals, vecs = np.linalg.eigh(block)
        sectors.append(MomentumSector(
            n=n, momentum=k, block=block,
            eigenvalues=vals, eigenvectors=vecs, projector=proj,
        ))
    return sectors


def _ring_sector(K: float, N: int) -> int:
    """Sector n with 2 pi n / N = K, or ParameterError."""
    n_k = K * N / (2.0 * math.pi)
    if abs(n_k - round(n_k)) > 1e-9:
        raise ParameterError(f"K = {K} is not a ring momentum for N = {N}")
    return int(round(n_k)) % N


def ring_embedding(state: BoundState, N: int) -> np.ndarray:
    """Wrap the infinite-chain bound state onto the ring basis.

    The pair on sites m and m + l carries e^{iK(m + l/2)} beta_l, and
    separations equal mod N reach the same ring states: residue r collects
    sum_{l = r mod N} e^{iKl/2} beta_l, the closed-form windings of each
    side of the contact (channels.expansion_winding; l < 0 via PARITY).
    Only local conversions follow: the sqrt(2) of a doubly occupied cavity,
    no doubly excited TLS.  Returned vector is unnormalized.
    """
    params = state.params
    _ring_sector(params.K, N)
    basis = TwoExcitationBasis(N)
    right, left = (expansion_winding(state.roots, state.scaled_amplitudes, N, s * params.K / 2)
                   for s in (1, -1))
    r = np.arange(N)
    fold = right[(r - 1) % N] + left[(-r - 1) % N] @ PARITY
    # l = 0: its photon pair shares a cavity; its d_+ reaches mix(m, m)
    # through both mixed terms below, whose sum supplies the sqrt(2)
    fold[0] += state.contact_spinor * np.array([SQRT2, 1.0, 1.0, 1.0])
    p, d_sym, d_asy, t = fold.T[:, :, None]
    com = np.exp(1j * params.K * r)
    # (r, m) grid of the pair on sites m and m + r
    m, other = np.broadcast_arrays(r, r[:, None] + r)
    psi = np.zeros(basis.dim, dtype=complex)
    np.add.at(psi, basis.pp(m, other), com * p)
    np.add.at(psi, basis.mix(m, other), com * (d_sym + d_asy) / SQRT2)
    np.add.at(psi, basis.mix(other, m), com * (d_sym - d_asy) / SQRT2)
    np.add.at(psi, basis.tt(m[1:], other[1:]), (com * t)[1:])
    return psi


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
    params = analytic.params
    gap = analytic.gap
    if not gap.contains(analytic.energy):
        raise OracleMismatchError(
            f"analytic energy {analytic.energy} is not inside its gap "
            f"({gap.lo:.6g}, {gap.hi:.6g})"
        )
    rows = []
    for N in N_list:
        h = build_hamiltonian(N, params)
        sector = momentum_blocks(h, N, only=[_ring_sector(params.K, N)])[0]
        inside = (sector.eigenvalues > gap.lo) & (sector.eigenvalues < gap.hi)
        if not inside.any():
            raise OracleMismatchError(
                f"no ring eigenvalue inside gap ({gap.lo:.6g}, {gap.hi:.6g}) "
                f"at N = {N}"
            )
        evals = sector.eigenvalues[inside]
        pick = int(np.argmin(np.abs(evals - analytic.energy)))
        vec_full = sector.projector @ sector.eigenvectors[:, inside][:, pick]
        psi = ring_embedding(analytic, N)
        ov = abs(np.vdot(vec_full, psi)) ** 2 / np.vdot(psi, psi).real
        rows.append(OracleComparison(
            N=int(N),
            energy=float(evals[pick]),
            error=float(abs(evals[pick] - analytic.energy)),
            overlap=float(ov),
        ))
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
    same margin inside a gap to count as a bound-state candidate.
    """
    tol = 5.0 * params.g / N
    bands = band_structure(params)
    h = build_hamiltonian(N, params)
    sector = momentum_blocks(h, N, only=[_ring_sector(params.K, N)])[0]
    expected = sum(
        len(find_bound_states(params, gap)) for gap in bands.gaps
    )
    violations, in_gap = [], []
    band_counts = [0] * len(bands.bands)
    for e in sector.eigenvalues:
        for i, band in enumerate(bands.bands):
            if band.lo - tol <= e <= band.hi + tol:
                band_counts[i] += 1
                break
        else:
            gap = bands.gap_at(e)
            deep = gap is not None and gap.contains(e, margin=tol)
            (in_gap if deep else violations).append(float(e))
    return EdgeCheckReport(
        N=int(N), violations=tuple(violations), in_gap=tuple(in_gap),
        expected_bound_count=int(expected), band_counts=tuple(band_counts),
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
