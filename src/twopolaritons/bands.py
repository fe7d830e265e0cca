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
So BA spans exactly the energies of AB, and band_structure computes the
edges of AA, AB and BB only, copying those of AB to BA.

Where sin(K/2) vanishes (K = 0 or +-2 pi, or xi = 0) the Bloch matrix is
A + cos(q) B with a semidefinite B, so each branch is monotone in cos q
(Weyl's monotonicity theorem) and its edges are its values at q = 0 and
q = pi, in closed form.  Elsewhere the edges come from a sampled scan of
the zone and a polish of the stationary points it brackets.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .model import PARITY, SQRT2, ModelParams, bloch_matrices, bloch_matrix

__all__ = [
    "BRANCHES",
    "Gap",
    "BandStructure",
    "dressed_energy",
    "branch_energy",
    "branch_energy_derivative",
    "branch_dispersion",
    "branch_vector",
    "incident_state",
    "band_structure",
    "phase_fix",
]

BRANCHES = ("AA", "AB", "BA", "BB")

#: Momenta per branch on the grid that brackets the band edges.
N_SAMPLES = 256

#: The edge polish stops once no stationary point moves by more than
#: POLISH_XTOL, and raises if that takes more than POLISH_STEPS steps.
POLISH_XTOL, POLISH_STEPS = 1e-9, 50

_SIGN = {"A": 1.0, "B": -1.0}

#: The branches whose edges are computed (BA shares AB's), their dressed-mode
#: signs, and the momenta of the closed-form edges.
_EDGE_BRANCHES = ("AA", "AB", "BB")
_EDGE_SIGNS = np.array([(_SIGN[label[0]], _SIGN[label[1]]) for label in _EDGE_BRANCHES])
_ZONE_ENDS = np.array([0.0, np.pi])


def _signs(branch: str):
    """Dressed-mode signs (+1 upper A, -1 lower B) of a branch's particles."""
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return _SIGN[branch[0]], _SIGN[branch[1]]


def dressed_energy(sign, x, y, g):
    """Upper (sign +1) or lower (sign -1) eigenvalue of levels x, y coupled by g."""
    return 0.5 * (x + y + sign * np.sqrt((x - y) ** 2 + 4.0 * g * g))


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


def _energy(params: ModelParams, q, s1, s2):
    """Energy of the branch whose dressed modes have signs s1 and s2.

    +1 is the upper (A), -1 the lower (B) mode; s1 belongs to the particle
    at K/2 + q, s2 to the one at K/2 - q.  q broadcasts against the signs,
    so one call evaluates several branches.
    """
    d0, l1, l2 = effective_levels(params, q)
    return dressed_energy(s1, d0, l1, params.g) + dressed_energy(s2, d0, l2, params.g)


def _slope_terms(params: ModelParams, q, levels) -> tuple:
    """(dd0, w1, w2) at q, levels = effective_levels(params, q): the branch with
    dressed-mode signs s1, s2 has dE/dq = dd0 + 0.5 (s1 w1 + s2 w2)."""
    g, half_k = params.g, 0.5 * params.K
    d0, l1, l2 = levels
    dd0 = -2.0 * params.xi * np.sin(q) * np.cos(half_k)
    dshift = 2.0 * params.xi * np.cos(q) * np.sin(half_k)
    u1, u2 = d0 - l1, d0 - l2
    return (dd0, u1 * (dd0 - dshift) / np.sqrt(u1 * u1 + 4.0 * g * g),
            u2 * (dd0 + dshift) / np.sqrt(u2 * u2 + 4.0 * g * g))


def _slope(params: ModelParams, q, s1, s2):
    """dE/dq of the branch with dressed-mode signs s1, s2 (as in _energy)."""
    dd0, w1, w2 = _slope_terms(params, q, effective_levels(params, q))
    return dd0 + 0.5 * (s1 * w1 + s2 * w2)


def branch_energy(branch: str, q, params: ModelParams):
    """Free-branch energy at relative momentum q (vectorized, complex-safe)."""
    return _energy(params, q, *_signs(branch))


def branch_energy_derivative(branch: str, q, params: ModelParams):
    """dE/dq of a branch, from the closed-form chain rule."""
    return _slope(params, q, *_signs(branch))


def branch_dispersion(q: float, params: ModelParams) -> dict:
    """(energy, dE/dq) of each branch at one real momentum q, by label, as floats: each
    dressed level and slope term once, summed as _energy and _slope sum them (a sign of
    +-1 scales exactly), so branch_energy's and branch_energy_derivative's bit for bit."""
    d0, l1, l2 = levels = effective_levels(params, q)
    g = params.g
    a1, b1 = float(dressed_energy(1.0, d0, l1, g)), float(dressed_energy(-1.0, d0, l1, g))
    a2, b2 = float(dressed_energy(1.0, d0, l2, g)), float(dressed_energy(-1.0, d0, l2, g))
    dd0, w1, w2 = map(float, _slope_terms(params, q, levels))
    return {"AA": (a1 + a2, dd0 + 0.5 * (w1 + w2)), "AB": (a1 + b2, dd0 + 0.5 * (w1 - w2)),
            "BA": (b1 + a2, dd0 + 0.5 * (-w1 + w2)), "BB": (b1 + b2, dd0 + 0.5 * (-w1 - w2))}


def _factor(sign, x, g):
    """Unnormalized (photon, tls) amplitudes of a dressed mode.

    x is the TLS level measured from the photon level; the returned pair is
    (2g, x + s*r) with r >= 2g the level splitting.
    """
    return 2.0 * g, x + sign * np.sqrt(x * x + 4.0 * g * g)


def phase_fix(vec: np.ndarray) -> np.ndarray:
    """Normalize to unit length and rotate the global phase.

    The first component whose magnitude reaches 10% of the largest one is
    made real and positive.  Comparing amplitudes between runs only makes
    sense once this gauge is frozen.  A (n, m) array is fixed column by
    column, each by the same rule; the few spinor columns are gauged as
    plain numbers and scaled as one array.
    """
    v = np.asarray(vec)
    cols = v.reshape(len(v), -1)
    phases = []
    for col in cols.T.tolist():
        mags = [abs(x) for x in col]
        norm = math.hypot(*mags)
        if not norm:
            raise ValueError("cannot phase-fix a zero vector")
        floor = 0.1 * max(mags)
        pick = next((i for i, m in enumerate(mags) if m >= floor), 0)
        phases.append(col[pick].conjugate() / (mags[pick] * norm))
    out = (cols * np.array(phases)).reshape(v.shape)
    if not np.iscomplexobj(vec):
        return out.real
    return out


def branch_vector(branch: str, q: float, params: ModelParams) -> np.ndarray:
    """Normalized branch spinor F at real momentum q, in the gauge of phase_fix.

    The closed form is checked against the Bloch eigen-relation; a residual
    above 1e-10 of the matrix scale raises ConditioningError.
    """
    s1, s2 = _signs(branch)
    g = params.g
    d0, l1, l2 = effective_levels(params, q)
    pg1, e1 = _factor(s1, l1 - d0, g)
    pg2, e2 = _factor(s2, l2 - d0, g)
    # The antisymmetric slot carries first-photon x second-TLS minus the
    # reverse; with the K/2+q particle taken as "first" this ordering is
    # what the eigen-relation demands.
    f = phase_fix(np.array(
        [
            pg1 * pg2,
            (e1 * pg2 + pg1 * e2) / SQRT2,
            (pg1 * e2 - e1 * pg2) / SQRT2,
            e1 * e2,
        ]
    ))
    energy = dressed_energy(s1, d0, l1, g) + dressed_energy(s2, d0, l2, g)
    m = bloch_matrix(params, q)
    if np.linalg.norm(m @ f - energy * f) > 1e-10 * (np.linalg.norm(m) + abs(energy)):
        raise ConditioningError(f"no clean eigenvector for branch {branch} at q={q!r}")
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

    def contains(self, energy: float, margin: float = 0.0) -> bool:
        return self.lo + margin < energy < self.hi - margin


@dataclass(frozen=True)
class BandStructure:
    params: ModelParams
    branch_edges: dict
    bands: tuple
    gaps: tuple      # by index, topmost gap first

    def gap_at(self, energy: float):
        for gap in self.gaps:
            if gap.contains(energy):
                return gap
        return None


def _scanned_edges(params: ModelParams) -> tuple:
    """Lowest and highest energies of AA, AB and BB (in that order), from a scan.

    The branches are sampled together at the midpoints of N_SAMPLES equal
    cells of the zone, so q = 0 and pi, stationary by symmetry, always fall
    strictly inside a bracket.  Each sign change of dE/dq between
    neighbouring samples (cyclically) brackets a stationary point; all are
    polished at once by Illinois regula-falsi steps on dE/dq.  An edge is
    the extreme over the samples and polished points, exact to rounding
    since the energy error is quadratic in the q error.
    """
    step = 2.0 * np.pi / N_SAMPLES
    qs = -np.pi + step * (np.arange(N_SAMPLES) + 0.5)
    grid = (params, qs, _EDGE_SIGNS[:, :1], _EDGE_SIGNS[:, 1:])
    ev, dv = _energy(*grid), _slope(*grid)
    dn = np.roll(dv, -1, axis=1)
    row, col = np.nonzero(((dv < 0.0) & (dn > 0.0)) | ((dv > 0.0) & (dn < 0.0)))
    s1, s2 = _EDGE_SIGNS[row, 0], _EDGE_SIGNS[row, 1]
    a, fa = qs[col], dv[row, col]
    b, fb = a + step, dn[row, col]
    for _ in range(POLISH_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        fc = _slope(params, c, s1, s2)
        # keep the bracket; halving the stale end's slope stops one end
        # from sticking, the failure of plain regula falsi
        flip = fc * fb < 0.0
        a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
        moved = np.abs(c - b)
        b, fb = c, fc
        if not moved.size or moved.max() <= POLISH_XTOL:
            break
    else:
        raise ConditioningError(f"band-edge polish did not settle in {POLISH_STEPS} steps "
                                f"(last move {moved.max():.3g}) at {params}")
    low, high = ev.min(axis=1), ev.max(axis=1)
    polished = _energy(params, b, s1, s2)
    np.minimum.at(low, row, polished)
    np.maximum.at(high, row, polished)
    return low, high


def band_structure(params: ModelParams) -> BandStructure:
    """Branch ranges, merged bands, and the gaps between them.

    Where sin(K/2) vanishes to rounding (BlochMatrices.double_root: K = 0
    or +-2 pi, or xi = 0) the edges are in closed form.  There the Bloch
    matrix is M(q) = A + cos(q) B, even in q, with B = hop_cos = 2 xi
    cos(K/2) diag(2, 1, 1, 0) semidefinite, so by Weyl's monotonicity
    theorem (Horn & Johnson, Matrix Analysis, Cor. 4.3.12) every branch
    energy is monotone in cos q, and its edges are its values at q = 0 and
    q = pi: one _energy call, no scan and no polish.  At every other K the
    edges come from _scanned_edges.  BA takes the edges of AB (see the
    module docstring), and _from_edges merges the edges into bands and gaps
    on either path.
    """
    if bloch_matrices(params).double_root:
        ends = _energy(params, _ZONE_ENDS, _EDGE_SIGNS[:, :1], _EDGE_SIGNS[:, 1:])
        return _from_edges(params, ends.min(axis=1), ends.max(axis=1))
    return _from_edges(params, *_scanned_edges(params))


def _from_edges(params: ModelParams, low, high) -> BandStructure:
    """The BandStructure whose AA, AB and BB span [low, high] (in that order)."""
    edges = {label: (float(low[i]), float(high[i])) for i, label in enumerate(_EDGE_BRANCHES)}
    edges = {label: edges["AB" if label == "BA" else label] for label in BRANCHES}

    # AB and BA cover the same energy set (q -> -q maps one onto the other),
    # so they always merge; other overlaps depend on the hopping strength.
    merged = []
    for lo, hi, label in sorted((*edges[label], label) for label in BRANCHES):
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
