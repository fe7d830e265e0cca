"""Propagation channels of the relative motion at a fixed real energy.

A wave b_l = z^l F with z = e^{i lam} solves the free chain at energy E
when (hp + (A - E) z + hm z^2) F = 0.  This quadratic eigenproblem is
solved as one 8x8 companion pencil for every K.  Because the determinant
is even in lam, its roots come in z <-> 1/z pairs, which leaves three
channels.  Channels on the unit circle with positive group velocity are
open (outgoing waves).  The rest decay as |z|^l = e^{-Im(lam) l} and are
closed.

A ChannelState is a contact spinor plus sum_j s_j z_j^(l-1) F_j elsewhere;
contact_elimination fixes the s_j from the contact spinor, channel_expansion
evaluates them site by site (certificate_window over the window a solver
certifies), and expansion_moment and expansion_winding sum them over the
chain and around a ring as geometric series.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bands import BRANCHES, branch_energy, branch_energy_derivative, branch_vector, phase_fix
from .errors import ConditioningError, DegenerateParametersError
from .model import PARITY, ModelParams, bloch_matrices, contact_interaction, site_residual

__all__ = [
    "TOL_EDGE_FACTOR",
    "ChannelState",
    "certificate_window",
    "channel_expansion",
    "contact_elimination",
    "expansion_moment",
    "expansion_winding",
    "find_channel_roots",
]

#: |.|z| - 1| below this counts as on the unit circle (open channel).
TOL_OPEN = 1e-8

#: Energies closer than TOL_EDGE_FACTOR * g to a band edge are refused:
#: the open/closed dichotomy breaks when the group velocity vanishes.
TOL_EDGE_FACTOR = 1e-6

#: Group velocities below this scale-relative floor mean a band edge.
_VELOCITY_FLOOR = 1e-10

#: Open eigenvalues whose |lam| agree to this share one momentum (the AB/BA
#: pair at K = 0); the pencil splits such a double root only by roundoff.
_CLUSTER_TOL = 1e-5


@dataclass(frozen=True)
class ChannelRoot:
    """One outgoing channel: momentum, Bloch factor, spinor, bookkeeping.

    z = e^{i lam}.  A closed channel has Im lam > 0 and Re lam in
    (-pi/2, 3pi/2], so a real z of either sign sits away from the branch
    cut of the logarithm; its branch label is "".  An open channel carries
    its branch label, the branch spinor and its (positive) group velocity.
    """

    lam: complex
    z: complex
    is_open: bool
    branch: str
    vector: np.ndarray
    group_velocity: float


def channel_expansion(l, roots, scaled, contact, incident=None) -> np.ndarray:
    """Spinor(s) of a channel expansion at integer site(s) l.

    Sites l >= 1 carry sum_j s_j z_j^(l-1) F_j, with s_j the l = 1 channel
    amplitudes ("scaled") and F_j the channel spinors; site 0 carries the
    contact spinor and l < 0 the exchange mirror PARITY @ beta_{|l|}.
    ``incident``, the free spinors at the same sites, adds at l != 0 (the
    incident wave of a scattering state).
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
    if incident is not None:
        beta = beta + np.where((l != 0)[..., None], incident, 0.0)
    return beta[0] if scalar else beta


def certificate_window(half: int, E, params, roots, scaled, contact, incident=None):
    """Spinors at |l| <= half + 1, incident(l) added, and their largest defect at |l| <= half."""
    sites = np.arange(-half - 1, half + 2)
    field = channel_expansion(sites, roots, scaled, contact,
                              None if incident is None else incident(sites))
    return field, float(site_residual(field, E, (-half, half), params).max())


@dataclass(frozen=True)
class ChannelState:
    """Contact spinor b_0 = (p, d_+, 0, 0) plus the channel expansion at l != 0.

    scaled_amplitudes are the l = 1 channel amplitudes s_j, ordered like
    roots.  residual_max is the largest site-equation defect over the
    solver's certificate window (certificate_window).
    """

    params: ModelParams
    energy: float
    roots: tuple
    scaled_amplitudes: np.ndarray
    contact_spinor: np.ndarray
    residual_max: float

    def wavefunction(self, l) -> np.ndarray:
        """Spinor(s) at integer site(s) l."""
        return channel_expansion(l, self.roots, self.scaled_amplitudes, self.contact_spinor)


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


def expansion_winding(roots, scaled, N: int, theta: float) -> np.ndarray:
    """sum_{k >= 0} e^{i theta l} beta_l over l = u + kN, for u = 1 .. N (rows).

    Wrapping the sites l >= 1 onto a ring of N sites collects each residue
    u as a geometric series in e^{i theta N} z_j^N, so row u - 1 is
    sum_j s_j e^{i theta u} z_j^(u-1) F_j / (1 - e^{i theta N} z_j^N):
    exact for any set of decaying channels, at a cost free of the decay.
    """
    u = np.arange(1, N + 1)[:, None]
    z = np.array([r.z for r in roots])
    f = np.array([r.vector for r in roots])
    fold = np.exp(1j * theta * u) * np.power(z, u - 1) / (1.0 - np.exp(1j * theta * N) * z**N)
    return (np.asarray(scaled) * fold) @ f


def contact_elimination(E, roots, params, incident=None):
    """Eliminate the sites l != 0 of a channel expansion: (W, C, r).

    With b_l = inc_l + sum_j s_j z_j^(l-1) F_j for l >= 1 and b_-l = PARITY
    b_l, rows 0-2 of the l = 1 equation fix the l = 1 channel amplitudes
    from the contact spinor, s = W (b_0 - inc_0) with W = -M_1^-1 hp[:3]
    and M_1 = ((A - E) Phi + hm Phi Z)[:3] (row 3 holds for every channel,
    and M_1 stays regular as z -> 0).  The l = 0 equation then reads
    C b_0 = r with C = A + V - E + (hp PARITY + hm) Phi W and
    r = -(hp PARITY + hm)(inc_1 - Phi W inc_0).  ``incident`` holds the
    free spinors (inc_0, inc_1); None, for a bound state, means zero.  An
    M_1 singular to working precision raises ConditioningError.
    """
    mats = bloch_matrices(params)
    a_e = mats.onsite - E * np.eye(4)
    hp, hm = mats.hop_blocks()
    phi = np.array([r.vector for r in roots]).T
    z = np.array([r.z for r in roots])
    m1 = (a_e @ phi + hm @ phi * z)[:3]
    w = -_solve_regular(m1, hp[:3], f"channel block M_1 at E = {E}")
    mirror_hop = hp @ PARITY + hm
    c = a_e + contact_interaction(params) + mirror_hop @ phi @ w
    if incident is None:
        return w, c, np.zeros(4, dtype=complex)
    inc0, inc1 = incident
    return w, c, -mirror_hop @ (inc1 - phi @ (w @ inc0))


def _solve_regular(m, rhs, what: str) -> np.ndarray:
    """np.linalg.solve, refusing cond(m) >= 1/eps (LAPACK flags only zero pivots)."""
    cond = np.linalg.cond(m)
    if not cond < 1.0 / np.finfo(float).eps:
        raise ConditioningError(f"{what} is singular to working precision (cond {cond:.3g})")
    return np.linalg.solve(m, rhs)


def _det_scale(norms, cos, sin):
    """Hadamard-style magnitude of det(a + b cos(lam) + c sin(lam)).

    Product of row norms (``norms`` holds those of a, b and c), the b and c
    rows weighted by max(1, |cos lam|) and max(1, |sin lam|), which follow
    a closed channel's growing decay.
    """
    na, nb, nc = norms
    return float(np.prod(na + max(1.0, abs(cos)) * nb + max(1.0, abs(sin)) * nc))


def _pencil_eigs(a, hp, hm):
    """The six channel eigenpairs (z, F) of the companion pencil, by |z|.

    With x = (F, z F) the quadratic (hp + a z + hm z^2) F = 0 reads
    [[0, I], [-hp, -a]] x = z [[I, 0], [0, hm]] x.  The TLS pair does not
    hop, so hp and hm share a zero row and column: the pencil always has
    one structural z = 0 and one structural z = inf, dropped here.  The
    homogeneous form (alpha, beta) orders them without forming inf.
    """
    if np.linalg.matrix_rank(hm[:3, :3]) < 3:
        raise DegenerateParametersError(
            "photon pair does not hop: 2 xi cos(K/2) = 0 on the Brillouin "
            "zone boundary K = pi (or at xi = 0), so the hopping block loses rank"
        )
    lhs = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros((8, 8), dtype=complex)
    lhs[:4, 4:] = rhs[:4, :4] = np.eye(4)
    lhs[4:, :4], lhs[4:, 4:], rhs[4:, 4:] = -hp, -a, hm
    (alpha, beta), vecs = scipy.linalg.eig(lhs, rhs, homogeneous_eigvals=True)
    order = np.argsort(np.arctan2(np.abs(alpha), np.abs(beta)))[1:-1]
    alpha, beta = alpha[order], beta[order]
    if abs(alpha[0]) <= np.finfo(float).eps * abs(beta[0]):
        raise DegenerateParametersError(
            "energy hits twice the detuning; the third channel degenerates"
        )
    return alpha / beta, vecs[:4, order]


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
                raise ConditioningError(
                    f"open channel {br} has vanishing group velocity at lam={lam:.6g}"
                )
            if v > 0.0:
                kept.append((br, lam, v))
    if len(kept) != mult:
        raise DegenerateParametersError(
            f"open root at |lam|={lam_abs:.6g} admits {len(kept)} outgoing "
            f"waves, expected {mult}"
        )
    out = []
    for br, lam, v in kept:
        out.append(
            ChannelRoot(
                lam=complex(lam), z=complex(np.exp(1j * lam)), is_open=True,
                branch=br, vector=branch_vector(br, lam, params),
                group_velocity=v,
            )
        )
    return out


def find_channel_roots(E: float, params: ModelParams) -> list:
    """The three outgoing channels at energy E, open first.

    The channels are the eigenvalues z of the companion pencil with
    |z| <= 1.  A closed channel takes its spinor from its own eigenvector.
    Open channels (|z| = 1) are grouped by |lam|: each group of 2m
    eigenvalues holds m outgoing waves, labelled by branch.

    Raises a degenerate-parameter, band-edge or channel-count error instead
    of returning a malformed set; every returned root satisfies the
    determinant condition to 1e-9 relative to the Hadamard scale of
    M(lam) - E at that root, which follows |cos lam| and |sin lam| as
    |z| -> 0.
    """
    mats = bloch_matrices(params)
    a = mats.onsite - E * np.eye(4)
    z, vecs = _pencil_eigs(a, *mats.hop_blocks())
    on_circle = np.abs(np.abs(z) - 1.0) <= TOL_OPEN
    decaying = (np.abs(z) < 1.0) & ~on_circle
    channels = []
    lam_open = np.sort(np.abs(np.angle(z[on_circle])))
    breaks = np.flatnonzero(np.diff(lam_open) > _CLUSTER_TOL) + 1
    for group in np.split(lam_open, breaks):
        if group.size:
            channels.extend(_open_channels(group.mean(), group.size // 2, E, params))
    for zj, vec in zip(z[decaying], vecs.T[decaying]):
        # cut on the negative imaginary z axis: Re lam in (-pi/2, 3pi/2]
        lam = 0.5 * np.pi - 1j * np.log(-1j * zj)
        channels.append(
            ChannelRoot(
                lam=complex(lam), z=complex(zj), is_open=False, branch="",
                vector=phase_fix(vec), group_velocity=0.0,
            )
        )
    if len(channels) != 3:
        raise DegenerateParametersError(f"found {len(channels)} channels, expected 3")
    norms = [np.linalg.norm(m, axis=1) for m in (a, mats.hop_cos, mats.hop_sin)]
    for root in channels:
        cos, sin = np.cos(root.lam), np.sin(root.lam)
        val = np.linalg.det(a + mats.hop_cos * cos + mats.hop_sin * sin)
        scale = _det_scale(norms, cos, sin)
        if abs(val) > 1e-9 * scale:
            raise ConditioningError(
                f"channel root lam={root.lam:.6g} fails the determinant "
                f"condition: |det| = {abs(val):.3g} vs scale {scale:.3g}"
            )
    channels.sort(key=lambda r: (not r.is_open, r.lam.imag, r.lam.real, r.branch))
    return channels
