"""Free two-polariton branches: energies, spinors, incident states, bands.

At total momentum K the free relative motion separates, for each relative
momentum q, into two dressed modes built from an effective photon level
``d0 = 2 xi cos(q) cos(K/2)`` and two effective TLS levels
``delta +- 2 xi sin(q) sin(K/2)``.  Each mode is the upper (A) or lower (B)
eigenvalue of a two-level crossing, so the free states come in four branches
labelled AA, AB, BA, BB, and the branch energy is the sum of the two dressed
levels.  The branch spinor is the (anti)symmetrized product of the two
dressed-mode amplitude pairs.

Labelling convention: the first letter of the branch is the polariton kind
carried by the particle at momentum K/2 + q, the second by the particle at
K/2 - q, so that E(uv, q) = eps_u(K/2 + q) + eps_v(K/2 - q) holds exactly.
Swapping q -> -q therefore swaps the mixed labels: E(AB, q) = E(BA, -q).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .model import PARITY, ModelParams, bloch_matrix

__all__ = [
    "BRANCHES",
    "Band",
    "Gap",
    "BandStructure",
    "dressed_energy",
    "effective_levels",
    "branch_energy",
    "branch_energy_derivative",
    "branch_vector",
    "incident_state",
    "band_structure",
    "phase_fix",
]

BRANCHES = ("AA", "AB", "BA", "BB")

SQRT2 = float(np.sqrt(2.0))

#: Guard below which the dressed-mode splitting counts as collapsed and the
#: closed-form eigenvectors lose meaning (possible only off the real-q axis,
#: where the splitting can vanish).
DEGENERACY_GUARD = 1e-12

#: Momenta per branch on the grid that brackets the band edges.
N_SAMPLES = 256

_SIGN = {"A": 1.0, "B": -1.0}


def _split(branch: str):
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return branch[0], branch[1]


def dressed_energy(kind: str, x, y, g):
    """Upper ('A') or lower ('B') eigenvalue of levels x, y coupled by g."""
    s = _SIGN[kind[0] if kind in ("A", "B") else kind]  # raises KeyError on junk
    return 0.5 * (x + y + s * np.sqrt((x - y) ** 2 + 4.0 * g * g))


def effective_levels(params: ModelParams, q):
    """Effective photon level and the two effective TLS levels at momentum q.

    The first TLS level belongs to the particle at momentum K/2 + q, the
    second to the one at K/2 - q: the detuning level_i - d0 equals the
    one-excitation detuning delta - 2 xi cos(k) at k = K/2 +- q.
    """
    half_k = 0.5 * params.K
    d0 = 2.0 * params.xi * np.cos(q) * np.cos(half_k)
    shift = 2.0 * params.xi * np.sin(q) * np.sin(half_k)
    return d0, params.delta + shift, params.delta - shift


def branch_energy(branch: str, q, params: ModelParams):
    """Free-branch energy at relative momentum q (vectorized, complex-safe)."""
    u, v = _split(branch)
    d0, l1, l2 = effective_levels(params, q)
    return dressed_energy(u, d0, l1, params.g) + dressed_energy(v, d0, l2, params.g)


def branch_energy_derivative(branch: str, q, params: ModelParams):
    """dE/dq of a branch, from the closed-form chain rule."""
    u, v = _split(branch)
    g = params.g
    half_k = 0.5 * params.K
    d0, l1, l2 = effective_levels(params, q)
    dd0 = -2.0 * params.xi * np.sin(q) * np.cos(half_k)
    dshift = 2.0 * params.xi * np.cos(q) * np.sin(half_k)

    def parts(kind, y):
        r = np.sqrt((d0 - y) ** 2 + 4.0 * g * g)
        s = _SIGN[kind]
        return 0.5 * (1.0 + s * (d0 - y) / r), 0.5 * (1.0 - s * (d0 - y) / r)

    du_x, du_y = parts(u, l1)
    dv_x, dv_y = parts(v, l2)
    return dd0 * (du_x + dv_x) + du_y * dshift - dv_y * dshift


def _factor(kind: str, x, g):
    """Unnormalized (photon, tls) amplitudes of a dressed mode.

    x is the TLS level measured from the photon level; the returned pair is
    (2g, x + s*r) with r the level splitting.  For real x the squared norm
    is 4g^2 + (x + s*r)^2.  The argument of the square root is never a
    negative real, so the principal branch serves real and complex x alike.
    """
    r = np.sqrt(x * x + 4.0 * g * g)
    e = x + _SIGN[kind] * r
    return 2.0 * g, e, r


def phase_fix(vec: np.ndarray) -> np.ndarray:
    """Normalize to unit length and rotate the global phase.

    The first component whose magnitude reaches 10% of the largest one is
    made real and positive.  Comparing amplitudes between runs only makes
    sense once this gauge is frozen.
    """
    v = np.asarray(vec)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("cannot phase-fix a zero vector")
    v = v / norm
    mags = np.abs(v)
    pick = int(np.argmax(mags >= 0.1 * mags.max()))
    phase = v[pick] / mags[pick]
    out = v * np.conj(phase)
    if not np.iscomplexobj(vec):
        return out.real
    return out


def branch_vector(branch: str, q, params: ModelParams, *, check: bool = True) -> np.ndarray:
    """Normalized branch spinor F at momentum q.

    Real q gives a real vector in the frozen gauge of :func:`phase_fix`.
    Complex q continues the closed form analytically (principal square
    roots); if that lands on the wrong sheet the vector is recovered from
    the null space of the Bloch matrix instead.
    """
    u, v = _split(branch)
    g = params.g
    d0, l1, l2 = effective_levels(params, q)
    pg1, e1, r1 = _factor(u, l1 - d0, g)
    pg2, e2, r2 = _factor(v, l2 - d0, g)
    if min(abs(r1), abs(r2)) < DEGENERACY_GUARD * g:
        raise ConditioningError(
            f"dressed-mode splitting collapsed at q={q!r}; branch vectors are ill-defined"
        )
    # The antisymmetric slot carries first-photon x second-TLS minus the
    # reverse; with the K/2+q particle taken as "first" this ordering is
    # what the eigen-relation demands.
    f = np.array(
        [
            pg1 * pg2,
            (e1 * pg2 + pg1 * e2) / SQRT2,
            (pg1 * e2 - e1 * pg2) / SQRT2,
            e1 * e2,
        ]
    )
    f = phase_fix(f)
    if not check:
        return f
    energy = branch_energy(branch, q, params)
    m = bloch_matrix(params, q)
    scale = np.linalg.norm(m) + abs(energy)
    if np.linalg.norm(m @ f - energy * f) > 1e-10 * scale:
        # Wrong sheet of the continued square roots: fall back to the null
        # space of (M - E), which does not care about sheets.
        w, sv, vh = np.linalg.svd(m - energy * np.eye(4))
        f = phase_fix(np.conj(vh[-1]))
        if np.linalg.norm(m @ f - energy * f) > 1e-10 * scale:
            raise ConditioningError(
                f"no clean eigenvector for branch {branch} at q={q!r}"
            )
    return f


def incident_state(branch: str, q: float, params: ModelParams, l) -> np.ndarray:
    """Exchange-symmetric free state at site(s) l: (e^{iql} F + e^{-iql} PF)/2."""
    f = branch_vector(branch, q, params).astype(complex)
    pf = PARITY @ f
    l = np.asarray(l)
    phase = np.exp(1j * q * l)
    return 0.5 * (phase[..., None] * f + np.conj(phase)[..., None] * pf)


@dataclass(frozen=True)
class Band:
    """A connected interval of free-branch energies."""

    labels: tuple
    lo: float
    hi: float


@dataclass(frozen=True)
class Gap:
    """Open interval between two bands; index 1 is the topmost gap."""

    index: int
    lo: float
    hi: float
    below: tuple
    above: tuple

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, energy: float, margin: float = 0.0) -> bool:
        return self.lo + margin < energy < self.hi - margin


@dataclass(frozen=True)
class BandStructure:
    params: ModelParams
    branch_edges: dict
    bands: tuple
    gaps: tuple

    def gap_at(self, energy: float):
        for gap in self.gaps:
            if gap.contains(energy):
                return gap
        return None


def _refine_extremum(func, qs, idx, sign):
    """Brent polish of a sampled extremum (sign=+1 max, -1 min)."""
    from scipy.optimize import minimize_scalar

    n = len(qs)
    step = qs[1] - qs[0]
    qm = qs[idx]
    qa, qb = qm - step, qm + step
    fm = sign * func(qm)
    if not (fm > sign * func(qa) and fm > sign * func(qb)):
        return sign * fm
    res = minimize_scalar(
        lambda q: -sign * func(q), bracket=(qa, qm, qb), method="brent",
        options={"xtol": 1e-12},
    )
    return float(sign * -res.fun)


def band_structure(params: ModelParams) -> BandStructure:
    """Sampled branch ranges, merged bands, and the gaps between them.

    Edges are sampled on a uniform grid of N_SAMPLES momenta and polished
    by Brent's method, so they are accurate far beyond the grid spacing.
    """
    qs = np.linspace(-np.pi, np.pi, N_SAMPLES, endpoint=False)
    edges = {}
    for label in BRANCHES:
        ev = np.asarray(branch_energy(label, qs, params))
        func = lambda q, _label=label: float(branch_energy(_label, q, params))
        lows, highs = [], []
        for idx in range(N_SAMPLES):
            left = ev[idx - 1]
            right = ev[(idx + 1) % N_SAMPLES]
            here = ev[idx]
            if here <= left and here <= right:
                lows.append(_refine_extremum(func, qs, idx, -1.0))
            if here >= left and here >= right:
                highs.append(_refine_extremum(func, qs, idx, +1.0))
        edges[label] = (float(min(lows)), float(max(highs)))

    # AB and BA cover the same energy set (q -> -q maps one onto the other),
    # so they always merge; other overlaps depend on the hopping strength.
    intervals = sorted(
        ((edges[label][0], edges[label][1], label) for label in BRANCHES),
        key=lambda t: (t[0], t[1]),
    )
    merged = []
    for lo, hi, label in intervals:
        if merged and lo <= merged[-1][1] + 1e-12:
            mlo, mhi, labels = merged[-1]
            merged[-1] = (mlo, max(mhi, hi), labels + (label,))
        else:
            merged.append((lo, hi, (label,)))
    bands = tuple(Band(labels=labels, lo=lo, hi=hi) for lo, hi, labels in merged)

    gaps = []
    for upper_pos in range(len(bands) - 1, 0, -1):
        below = bands[upper_pos - 1]
        above = bands[upper_pos]
        gaps.append(
            Gap(
                index=len(gaps) + 1,
                lo=below.hi,
                hi=above.lo,
                below=below.labels,
                above=above.labels,
            )
        )
    return BandStructure(
        params=params,
        branch_edges=edges,
        bands=bands,
        gaps=tuple(gaps),
    )
