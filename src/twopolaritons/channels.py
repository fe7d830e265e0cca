"""Propagation channels of the relative motion at a fixed real energy.

A wave e^{i lam l} F solves the free chain at energy E when
det(A + B cos(lam) + C sin(lam) - E) = 0.  Conjugating by the exchange
matrix flips the sign of C, so the determinant is even in lam and reduces
to a cubic in w = cos(lam): three w values, hence three channels counting
multiplicity.  Channels with real lam and positive group velocity are open
(outgoing waves); the rest decay as e^{-Im(lam) l} and are closed.

At K = 0 the sin-block C vanishes and the cubic factors in closed form:
the mixed-branch root is a structural double root (the AB and BA waves
share one momentum there), which is why roots carry a multiplicity and the
closed-channel null spaces are extracted multiplicity-aware.

Bound and scattering states are expansions sum_j s_j z_j^(l-1) F_j over
the three channels; channel_expansion evaluates them site by site and
expansion_moment sums them over the chain as geometric series.
"""

from dataclasses import dataclass

import numpy as np

from .bands import BRANCHES, branch_energy, branch_energy_derivative, branch_vector, phase_fix
from .errors import (
    BandEdgeError,
    ChannelCountError,
    ConditioningError,
    DegenerateParametersError,
    LabelingError,
)
from .model import PARITY, ModelParams, bloch_matrices, bloch_matrix

__all__ = [
    "TOL_OPEN",
    "TOL_EDGE_FACTOR",
    "ChannelRoot",
    "channel_expansion",
    "expansion_moment",
    "polynomial_degree",
    "polynomial_roots",
    "find_channel_roots",
    "group_velocity",
    "label_branch",
]

#: |.|z| - 1| below this counts as on the unit circle (open channel).
TOL_OPEN = 1e-8

#: Energies closer than TOL_EDGE_FACTOR * g to a band edge are refused:
#: the open/closed dichotomy breaks when the group velocity vanishes.
TOL_EDGE_FACTOR = 1e-6

#: Group velocities below this scale-relative floor mean a band edge.
_VELOCITY_FLOOR = 1e-10

#: w roots closer than this (relative) collapse into one root with
#: multiplicity; the cluster mean is then accurate to roundoff even though
#: the individual companion-matrix roots split by the square root of it.
_CLUSTER_TOL = 1e-5

#: Chebyshev nodes for the exact cubic interpolation of det(M(w) - E).
_NODES = np.cos((2.0 * np.arange(4) + 1.0) * np.pi / 8.0)
_VANDER_INV = np.linalg.inv(np.vander(_NODES, 4, increasing=True))


@dataclass(frozen=True)
class ChannelRoot:
    """One outgoing channel: momentum, Bloch factor, spinor, bookkeeping.

    multiplicity counts how many channels share this lam (the structural
    double root at K = 0 gives two); each of them is its own ChannelRoot.
    Closed-channel branch labels are advisory: downstream math uses only
    (lam, vector).
    """

    lam: complex
    z: complex
    is_open: bool
    branch: str
    conventional: bool
    multiplicity: int
    vector: np.ndarray
    group_velocity: float


def channel_expansion(l, roots, scaled, contact) -> np.ndarray:
    """Spinor(s) of a channel expansion at integer site(s) l.

    Sites l >= 1 carry sum_j s_j z_j^(l-1) F_j, with s_j the l = 1 channel
    amplitudes ("scaled") and F_j the channel spinors; site 0 carries the
    contact spinor and l < 0 the exchange mirror PARITY @ beta_{|l|}.
    """
    l = np.asarray(l)
    scalar = l.ndim == 0
    l = np.atleast_1d(l)
    pos = np.abs(l)
    beta = np.zeros(l.shape + (4,), dtype=complex)
    for root, amp in zip(roots, scaled):
        beta += amp * np.power(root.z, (pos - 1)[..., None]) * root.vector
    beta[pos == 0] = contact
    neg = l < 0
    beta[neg] = beta[neg] @ PARITY  # diagonal, so right-multiplication works
    return beta[0] if scalar else beta


def expansion_moment(roots, scaled, lag: int) -> np.ndarray:
    """sum_{l >= 1} beta_{l+lag} beta_l^H of the channel expansion, in closed form.

    Each term pairs two geometric series in z_j and conj(z_i), so the sum
    is F^T [s_j z_j^lag conj(s_i) / (1 - z_j conj(z_i))] conj(F): a 3x3 core
    between the channel spinors, exact for any set of decaying channels.
    """
    z = np.array([r.z for r in roots])
    f = np.array([r.vector for r in roots])
    s = np.asarray(scaled)
    core = np.outer(s * z**lag, np.conj(s)) / (1.0 - np.outer(z, np.conj(z)))
    return f.T @ core @ np.conj(f)


def polynomial_degree(coeffs: np.ndarray, rtol: float = 1e-12) -> int:
    """Effective degree after trimming trailing coefficients below rtol*max."""
    mags = np.abs(coeffs)
    keep = np.nonzero(mags > rtol * mags.max())[0]
    return int(keep.max()) if keep.size else -1

def polynomial_roots(coeffs: np.ndarray, rtol: float = 1e-12) -> np.ndarray:
    """Roots of a coefficient list (ascending), ignoring negligible leading terms."""
    deg = polynomial_degree(coeffs, rtol)
    if deg < 1:
        return np.array([], dtype=complex)
    return np.roots(coeffs[deg::-1])


def _blocks_minus_e(E, params):
    mats = bloch_matrices(params)
    return mats.onsite - E * np.eye(4), mats.hop_cos, mats.hop_sin


def _det_scale(a, b, c, lam=0.0):
    """Hadamard-style magnitude of det(a + b cos(lam) + c sin(lam)).

    Product of row norms, the b and c rows weighted by max(1, |cos lam|)
    and max(1, |sin lam|), which follow a closed channel's growing decay.
    """
    rows = (np.linalg.norm(a, axis=1)
            + max(1.0, abs(np.cos(lam))) * np.linalg.norm(b, axis=1)
            + max(1.0, abs(np.sin(lam))) * np.linalg.norm(c, axis=1))
    return float(np.prod(rows))


def _cubic_in_w(E, params):
    """Coefficients (ascending, length 4) of det(M - E) as a cubic in w = cos lam."""
    a, b, c = _blocks_minus_e(E, params)
    dets = np.empty(4)
    for j, w in enumerate(_NODES):
        m = a + w * b + np.sqrt(1.0 - w * w) * c
        dets[j] = np.linalg.det(m)
    return _VANDER_INV @ dets


def _w_roots_general(E, params):
    """(w, multiplicity) pairs of the channel cubic, clustered."""
    coeffs = _cubic_in_w(E, params)
    scale = np.abs(coeffs).max()
    if scale == 0.0 or np.abs(coeffs[1:]).max() < 1e-13 * max(scale, _det_scale(*_blocks_minus_e(E, params))):
        raise DegenerateParametersError(
            "channel condition has no momentum dependence (xi = 0 or equivalent)"
        )
    roots = polynomial_roots(coeffs, rtol=1e-13)
    if roots.size == 0:
        raise ChannelCountError("channel cubic lost all roots; degenerate parameters")
    # Real-coefficient cubic: real parts are genuine, tiny imaginary parts
    # are companion-matrix noise on real roots. Genuine complex w (conjugate
    # pair) would put lam off both the real and imaginary axes; the chain
    # supports those only as closed channels and they are kept as-is.
    roots = np.where(np.abs(roots.imag) < 1e-9 * np.maximum(1.0, np.abs(roots)), roots.real, roots)
    order = np.argsort(roots.real + 1e-3 * np.abs(roots.imag))
    roots = roots[order]
    clustered = []
    for r in roots:
        if clustered and abs(r - clustered[-1][0]) <= _CLUSTER_TOL * max(1.0, abs(r)):
            w0, m = clustered[-1]
            clustered[-1] = ((w0 * m + r) / (m + 1), m + 1)
        else:
            clustered.append((r, 1))
    return clustered


def _w_roots_k0(E, params):
    """Closed-form w roots when the sin-block vanishes (K = 0 geometry).

    The mixed root is structural and double; the remaining linear factor
    gives the like-polariton root.  Degenerates when E = 2 Delta, where the
    cubic drops degree and the third channel escapes to infinite decay.
    """
    d, g = params.delta, params.g
    hop = 2.0 * params.xi * np.cos(0.5 * params.K)
    denom = 2.0 * (2.0 * d - E)
    scale = max(1.0, abs(E), abs(d), g)
    if abs(denom) < 1e-12 * scale:
        raise ChannelCountError(
            "energy hits twice the detuning; the third channel degenerates"
        )
    w_mixed = (E - d) / hop
    w_like = (4.0 * g * g + 2.0 * E * d - E * E) / denom / hop
    return [(w_mixed, 2), (w_like, 1)]


def _lam_from_w(w):
    """lam with Im lam >= 0 and |z| <= 1 from w = cos lam, stably.

    z solves z^2 - 2wz + 1 = 0; the small root is computed as the inverse
    of the larger one to dodge cancellation at large |w|.
    """
    w = complex(w)
    s = np.sqrt(w * w - 1.0)
    big = w + s if abs(w + s) >= abs(w - s) else w - s
    if abs(big) < 1.0:  # |w| <= 1: both on the unit circle
        z = big if big.imag >= 0 else np.conj(big)
    else:
        z = 1.0 / big
        if abs(abs(z) - 1.0) <= TOL_OPEN and z.imag < 0:
            z = np.conj(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)  # scrub -0j so the log lands on Re lam = +pi
    lam = -1j * np.log(z)
    return lam, z


def _det_at(lam, E, params):
    m = bloch_matrix(params, lam) - E * np.eye(4)
    return np.linalg.det(m), m


def _newton_polish(lam, E, params):
    """One Newton step on det(M(lam) - E); derivative via row-replaced dets."""
    mats = bloch_matrices(params)
    for _ in range(2):
        val, m = _det_at(lam, E, params)
        dm = -mats.hop_cos * np.sin(lam) + mats.hop_sin * np.cos(lam)
        dval = 0.0
        for row in range(4):
            mr = m.copy()
            mr[row] = dm[row]
            dval += np.linalg.det(mr)
        if abs(dval) < 1e-10 * max(1.0, abs(val)):
            break
        step = val / dval
        lam = lam - step
        if abs(step) < 1e-14:
            break
    return lam


def label_branch(lam: complex, E: float, params: ModelParams, tol: float = 1e-8):
    """Branch label whose closed-form energy at lam reproduces E.

    The four branch energies enumerate the eigenvalues of the Bloch matrix
    for any complex lam: flipping the sheet of either inner square root
    permutes the four labels among themselves, so the principal sheet
    already covers both sheets' value sets.  Returns (branch, distance).
    """
    dists = [abs(branch_energy(br, lam, params) - E) for br in BRANCHES]
    best = int(np.argmin(dists))
    if dists[best] > tol * max(1.0, abs(E)):
        raise LabelingError(
            f"no branch energy matches E={E:.6g} at lam={lam:.6g} "
            f"(best {BRANCHES[best]} off by {dists[best]:.3g})"
        )
    return BRANCHES[best], dists[best]


def group_velocity(root: ChannelRoot, params: ModelParams) -> float:
    """dE/dlam of an open channel via the Hellmann-Feynman form.

    Cross-checked against a central finite difference of the branch energy;
    disagreement means the root or its label is inconsistent.
    """
    if not root.is_open:
        raise ValueError("group velocity is defined for open channels only")
    mats = bloch_matrices(params)
    lam = root.lam.real
    f = root.vector
    dm = -mats.hop_cos * np.sin(lam) + mats.hop_sin * np.cos(lam)
    v = float(np.real(np.conj(f) @ dm @ f) / np.real(np.conj(f) @ f))
    h = 1e-6
    fd = (branch_energy(root.branch, lam + h, params)
          - branch_energy(root.branch, lam - h, params)) / (2.0 * h)
    scale = max(1.0, abs(v), abs(fd))
    if abs(v - fd) > 1e-6 * scale:
        raise ConditioningError(
            f"velocity mismatch for {root.branch}: Hellmann-Feynman {v:.9g} "
            f"vs finite difference {fd:.9g}"
        )
    return v


def _closed_channels(lam, mult, E, params):
    """Closed-channel roots sharing lam: null vectors plus advisory label."""
    lam = _newton_polish(lam, E, params) if mult == 1 else lam
    if lam.imag < 0:
        lam = -np.conj(lam)  # keep the decaying representative
    z = np.exp(1j * lam)
    _, m = _det_at(lam, E, params)
    _, sv, vh = np.linalg.svd(m)
    try:
        branch, _ = label_branch(lam, E, params)
    except LabelingError:
        branch = ""
    out = []
    for k in range(mult):
        vec = phase_fix(np.conj(vh[3 - k]))
        out.append(
            ChannelRoot(
                lam=complex(lam), z=complex(z), is_open=False, branch=branch,
                conventional=True, multiplicity=mult, vector=vec,
                group_velocity=0.0,
            )
        )
    return out


def _open_channels(lam_abs, mult, E, params):
    """Open-channel roots at +-lam_abs: branch labels with outgoing velocity."""
    tol = 1e-8 * max(1.0, abs(E))
    floor = _VELOCITY_FLOOR * (params.g + abs(params.xi))
    kept = []
    for lam in (lam_abs, -lam_abs):
        for br in BRANCHES:
            if abs(branch_energy(br, lam, params) - E) > tol:
                continue
            v = float(branch_energy_derivative(br, lam, params))
            if abs(v) <= floor:
                raise BandEdgeError(
                    f"open channel {br} has vanishing group velocity at lam={lam:.6g}"
                )
            if v > 0.0:
                kept.append((br, lam, v))
    if len(kept) != mult:
        raise ChannelCountError(
            f"open root at |lam|={lam_abs:.6g} admits {len(kept)} outgoing "
            f"waves, expected {mult}"
        )
    out = []
    for br, lam, v in kept:
        out.append(
            ChannelRoot(
                lam=complex(lam), z=complex(np.exp(1j * lam)), is_open=True,
                branch=br, conventional=False, multiplicity=mult,
                vector=branch_vector(br, lam, params), group_velocity=v,
            )
        )
    return out


def find_channel_roots(E: float, params: ModelParams) -> list:
    """The three outgoing channels at energy E, open first.

    Raises a band-edge or channel-count error instead of returning a
    malformed set; every returned root satisfies the determinant condition
    to 1e-9 relative to the Hadamard scale of M(lam) - E at that root,
    which follows |cos lam| and |sin lam| as |z| -> 0.
    """
    if np.sin(0.5 * params.K) == 0.0:
        w_roots = _w_roots_k0(E, params)
    else:
        w_roots = _w_roots_general(E, params)
    channels = []
    for w, mult in w_roots:
        lam, z = _lam_from_w(w)
        if abs(abs(z) - 1.0) <= TOL_OPEN:
            channels.extend(_open_channels(abs(lam.real), mult, E, params))
        else:
            channels.extend(_closed_channels(lam, mult, E, params))
    if len(channels) != 3:
        raise ChannelCountError(f"found {len(channels)} channels, expected 3")
    a, b, c = _blocks_minus_e(E, params)
    for root in channels:
        val, _ = _det_at(root.lam, E, params)
        scale = _det_scale(a, b, c, root.lam)
        if abs(val) > 1e-9 * scale:
            raise ConditioningError(
                f"channel root lam={root.lam:.6g} fails the determinant "
                f"condition: |det| = {abs(val):.3g} vs scale {scale:.3g}"
            )
    channels.sort(key=lambda r: (not r.is_open, r.lam.imag, r.lam.real, r.branch))
    return channels
