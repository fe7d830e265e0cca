"""Propagation channels of the relative motion at a fixed real energy.

A wave b_l = z^l F with z = e^{i lam} solves the free chain at energy E
when (hp + (A - E) z + hm z^2) F = 0.  This quadratic eigenproblem is
solved as one 8x8 companion pencil for every K: one LAPACK ggev call per
energy, with the E-independent blocks cached per parameter set.  Because
the determinant is even in lam, its roots come in z <-> 1/z pairs, which
leaves three channels.  Channels on the unit circle with positive group
velocity are open (outgoing waves).  The rest decay as |z|^l =
e^{-Im(lam) l} and are closed.  find_channel_roots returns the three as
one ChannelSet: a frozen record of read-only arrays (momenta, Bloch
factors, the spinors as the columns of one 4x3 array, open flags,
velocities) that every consumer reads as arrays.

A ChannelState is a contact spinor plus sum_j s_j z_j^(l-1) F_j elsewhere;
contact_elimination fixes the s_j from the contact spinor, channel_expansion
evaluates them site by site (certificate_window over the window a solver
certifies), and expansion_moment and expansion_winding sum them over the
chain and around a ring as geometric series.
"""

import cmath
import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .bands import BRANCHES, branch_energy, branch_energy_derivative, branch_vector, phase_fix
from .errors import ConditioningError, DegenerateParametersError, ParameterError
from .model import PARITY, ModelParams, bloch_matrices, contact_interaction, site_residual

__all__ = [
    "TOL_EDGE_FACTOR",
    "ChannelSet",
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

_EPS = np.finfo(float).eps

#: LAPACK's generalized eigensolver for the complex 8x8 companion pencil.
(_GGEV,) = get_lapack_funcs(("ggev",), (np.zeros((8, 8), dtype=complex),))

#: LAPACK's divide-and-conquer SVD for the complex blocks _solve_regular inverts.
(_GESDD,) = get_lapack_funcs(("gesdd",), (np.zeros((3, 3), dtype=complex),))

#: Energy-independent data of one parameter set: blocks, the diagonal of A and the
#: norms of its off-diagonal rows, hop_cos/hop_sin row norms, hp PARITY + hm, the
#: companion pencil less its -(A - E) block, the 4x4 identity, rank of hm[:3, :3].
_Pencil = namedtuple("_Pencil", "onsite onsite_diag offdiag_norms hop_cos hop_sin hop_norms "
                                "hp hm contact mirror_hop lhs rhs eye hm_rank")


@functools.lru_cache(maxsize=8)
def _pencil(params: ModelParams) -> _Pencil:
    """The _Pencil of params, its arrays read-only; the 8 most recent are kept."""
    mats = bloch_matrices(params)
    hp, hm = mats.hop_blocks()
    zero, one = np.zeros((4, 4)), np.eye(4)
    pencil = _Pencil(
        onsite=mats.onsite, onsite_diag=mats.onsite.diagonal().copy(),
        offdiag_norms=np.linalg.norm(mats.onsite - np.diag(mats.onsite.diagonal()), axis=1),
        hop_cos=mats.hop_cos, hop_sin=mats.hop_sin,
        hop_norms=np.linalg.norm([mats.hop_cos, mats.hop_sin], axis=2), hp=hp, hm=hm,
        contact=contact_interaction(params), mirror_hop=hp @ PARITY + hm,
        lhs=np.block([[zero, one], [-hp, zero]]), rhs=np.block([[one, zero], [zero, hm]]),
        eye=one, hm_rank=int(np.linalg.matrix_rank(hm[:3, :3])),
    )
    for array in pencil[:-1]:
        array.flags.writeable = False
    return pencil


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """The three outgoing channels at one energy, open first; every array read-only.

    Channel j has momentum lam[j], Bloch factor z[j] = e^{i lam[j]} and the
    phase-fixed spinor vectors[:, j].  A closed channel has Im lam > 0 and
    Re lam in (-pi/2, 3pi/2], so a real z of either sign sits away from the
    branch cut of the logarithm; its branch label is "" and its group
    velocity 0.  An open channel carries its branch label and its
    (positive) group velocity.  Open channels are ordered by (lam, branch),
    closed ones by (Im lam, Re lam).  One record is shared by every state
    built at its energy, so construction makes its arrays read-only.
    """

    lam: np.ndarray             # (3,) complex
    z: np.ndarray               # (3,) complex
    vectors: np.ndarray         # (4, 3), one spinor per column
    is_open: np.ndarray         # (3,) bool
    branch: tuple               # (3,) str
    group_velocity: np.ndarray  # (3,)

    def __post_init__(self):
        for array in (self.lam, self.z, self.vectors, self.is_open, self.group_velocity):
            array.flags.writeable = False

    def __setstate__(self, state):
        # unpickling (results of sweep workers) bypasses __init__
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def open_branches(self) -> tuple:
        """Branch labels of the open channels, in channel order."""
        return tuple(br for br in self.branch if br)


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
    beta = (scaled * np.power(roots.z, (pos - 1)[..., None])) @ roots.vectors.T
    beta[pos == 0] = contact
    neg = l < 0
    beta[neg] = beta[neg] @ PARITY  # diagonal, so right-multiplication works
    if incident is not None:
        beta = beta + np.where((l != 0)[..., None], incident, 0.0)
    return beta[0] if scalar else beta


def certificate_window(half: int, E, params, roots, scaled, contact, incident=None):
    """Spinors at l = -half - 1 .. half + 1 and their largest defect at |l| <= half.

    ``incident``, the free spinors at those sites, adds as in channel_expansion.
    """
    sites = np.arange(-half - 1, half + 2)
    field = channel_expansion(sites, roots, scaled, contact, incident)
    return field, float(site_residual(field, E, (-half, half), params).max())


@dataclass(frozen=True)
class ChannelState:
    """Contact spinor b_0 = (p, d_+, 0, 0) plus the channel expansion at l != 0.

    roots is the ChannelSet at ``energy``; scaled_amplitudes are the l = 1
    channel amplitudes s_j, ordered like its channels.  residual_max is the
    largest site-equation defect over the solver's certificate window
    (certificate_window).
    """

    params: ModelParams
    energy: float
    roots: ChannelSet
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
    z, f = roots.z, roots.vectors
    s = np.asarray(scaled)
    core = np.outer(s * z**lag, np.conj(s)) / (1.0 - np.outer(z, np.conj(z)))
    return f @ core @ np.conj(f.T)


def expansion_winding(roots, scaled, N: int, theta: float) -> np.ndarray:
    """sum_{k >= 0} e^{i theta l} beta_l over l = u + kN, for u = 1 .. N (rows).

    Wrapping the sites l >= 1 onto a ring of N sites collects each residue
    u as a geometric series in e^{i theta N} z_j^N, so row u - 1 is
    sum_j s_j e^{i theta u} z_j^(u-1) F_j / (1 - e^{i theta N} z_j^N):
    exact for any set of decaying channels, at a cost free of the decay.
    """
    u = np.arange(1, N + 1)[:, None]
    z = roots.z
    fold = np.exp(1j * theta * u) * np.power(z, u - 1) / (1.0 - np.exp(1j * theta * N) * z**N)
    return (np.asarray(scaled) * fold) @ roots.vectors.T


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
    pencil = _pencil(params)
    a_e = pencil.onsite - E * pencil.eye
    phi = roots.vectors
    m1 = (a_e @ phi + pencil.hm @ phi * roots.z)[:3]
    w = -_solve_regular(m1, pencil.hp[:3], f"channel block M_1 at E = {E}")
    c = a_e + pencil.contact + pencil.mirror_hop @ phi @ w
    if incident is None:
        return w, c, np.zeros(4, dtype=complex)
    inc0, inc1 = incident
    return w, c, -pencil.mirror_hop @ (inc1 - phi @ (w @ inc0))


def _solve_regular(m, rhs, what: str) -> np.ndarray:
    """Solve m x = rhs by one SVD, refusing cond(m) >= 1/eps (an LU flags only zero pivots).

    The 2-norm condition number s[0] / s[-1] and the solve
    Vh^H diag(1/s) U^H rhs share the factorization, one direct LAPACK gesdd
    call on the complex matrix; an SVD that fails to converge raises
    ConditioningError.  rhs is 1-D or 2-D.
    """
    u, s, vh, info = _GESDD(m)
    if info != 0:
        raise ConditioningError(f"LAPACK gesdd failed on {what} (info = {info})")
    if not s[0] < s[-1] / _EPS:
        cond = s[0] / s[-1] if s[-1] > 0.0 else np.inf
        raise ConditioningError(f"{what} is singular to working precision (cond {cond:.3g})")
    return (np.conj(vh.T) / s) @ (np.conj(u.T) @ rhs)


def _pencil_eigs(a, pencil):
    """The six channel eigenpairs (z, F) of the companion pencil, by |z|.

    With x = (F, z F) the quadratic (hp + a z + hm z^2) F = 0 reads
    [[0, I], [-hp, -a]] x = z [[I, 0], [0, hm]] x.  The TLS pair does not
    hop, so hp and hm share a zero row and column: the pencil always has
    one structural z = 0 and one structural z = inf, dropped here.  The
    homogeneous form (alpha, beta) orders them without forming inf.  F is
    unnormalized; a failed ggev raises ConditioningError.
    """
    if pencil.hm_rank < 3:
        raise DegenerateParametersError(
            "photon pair does not hop: 2 xi cos(K/2) = 0 on the Brillouin "
            "zone boundary K = pi (or at xi = 0), so the hopping block loses rank"
        )
    lhs = pencil.lhs.copy()
    lhs[4:, 4:] = -a
    alpha, beta, _, vecs, _, info = _GGEV(lhs, pencil.rhs, compute_vl=0)
    if info != 0:
        raise ConditioningError(f"LAPACK ggev failed on the companion pencil (info = {info})")
    order = np.argsort(np.arctan2(np.abs(alpha), np.abs(beta)))[1:-1]
    alpha, beta = alpha[order], beta[order]
    if abs(alpha[0]) <= _EPS * abs(beta[0]):
        raise DegenerateParametersError(
            "energy hits twice the detuning; the third channel degenerates"
        )
    return alpha / beta, vecs[:4, order]


def _open_channels(lam_abs, mult, E, params):
    """Open channels at +-lam_abs: (branch, lam, group velocity) of each outgoing wave."""
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
    return kept


def _det_scale(pencil, E, cos, sin) -> list:
    """Hadamard-style scale of M(lam) - E at each lam, from cos lam and sin lam.

    The product of row norms: those of A - E, closed-form in E from the
    cached diagonal and off-diagonal row norms of A, plus those of hop_cos
    and hop_sin weighted by max(1, |cos lam|) and max(1, |sin lam|) to
    follow a closed decay.  Plain floats: three products of four rows.
    """
    rows = [math.hypot(d - E, o)
            for d, o in zip(pencil.onsite_diag.tolist(), pencil.offdiag_norms.tolist())]
    norms_cos, norms_sin = pencil.hop_norms.tolist()
    scales = []
    for c, s in zip(cos.tolist(), sin.tolist()):
        wc, ws = max(1.0, abs(c)), max(1.0, abs(s))
        scales.append(math.prod(r + (wc * nc + ws * ns)
                                for r, nc, ns in zip(rows, norms_cos, norms_sin)))
    return scales


def find_channel_roots(E: float, params: ModelParams) -> ChannelSet:
    """The three outgoing channels at energy E, open first, as one ChannelSet.

    The channels are the eigenvalues z of the companion pencil with
    |z| <= 1.  A closed channel takes its spinor from its own eigenvector.
    Open channels (|z| = 1) are grouped by |lam|: each group of 2m
    eigenvalues holds m outgoing waves, labelled by branch.

    Raises a degenerate-parameter, band-edge or channel-count error instead
    of returning a malformed set; every returned channel satisfies the
    determinant condition to 1e-9 relative to the Hadamard scale of
    M(lam) - E at its lam, which follows |cos lam| and |sin lam| as
    |z| -> 0.
    """
    if not math.isfinite(E):
        raise ParameterError(f"energy must be finite, got {E!r}")
    pencil = _pencil(params)
    a = pencil.onsite - E * pencil.eye
    z, vecs = _pencil_eigs(a, pencil)
    zs = z.tolist()
    mod = [abs(w) for w in zs]
    on_circle = [abs(m - 1.0) <= TOL_OPEN for m in mod]
    # closed channels by (Im lam, Re lam); the cut on the negative imaginary
    # z axis puts Re lam in (-pi/2, 3pi/2]
    closed = sorted(((0.5 * math.pi - 1j * cmath.log(-1j * w), j) for j, w in enumerate(zs)
                     if mod[j] < 1.0 and not on_circle[j]),
                    key=lambda c: (c[0].imag, c[0].real))
    opened = []
    if any(on_circle):
        lam_open = np.sort(np.abs(np.angle(z[on_circle])))
        breaks = np.flatnonzero(np.diff(lam_open) > _CLUSTER_TOL) + 1
        for group in np.split(lam_open, breaks):
            opened.extend(_open_channels(group.mean(), group.size // 2, E, params))
        opened.sort(key=lambda o: (o[1], o[0]))
    n_open = len(opened)
    if n_open + len(closed) != 3:
        raise DegenerateParametersError(f"found {n_open + len(closed)} channels, expected 3")
    idx = [j for _, j in closed]
    lam = np.array([lo for _, lo, _ in opened] + [lc for lc, _ in closed], dtype=complex)
    z, vectors = z[idx], phase_fix(vecs[:, idx])
    if opened:
        z = np.concatenate((np.exp(1j * lam[:n_open]), z))
        vectors = np.column_stack([branch_vector(br, lo, params) for br, lo, _ in opened]
                                  + [vectors])
    cos, sin = np.cos(lam), np.sin(lam)
    vals = np.abs(np.linalg.det(a + np.multiply.outer(cos, pencil.hop_cos)
                                + np.multiply.outer(sin, pencil.hop_sin)))
    for j, (val, scale) in enumerate(zip(vals.tolist(), _det_scale(pencil, E, cos, sin))):
        if val > 1e-9 * scale:
            raise ConditioningError(
                f"channel root lam={lam[j]:.6g} fails the determinant "
                f"condition: |det| = {val:.3g} vs scale {scale:.3g}"
            )
    return ChannelSet(
        lam=lam, z=z, vectors=vectors, is_open=np.arange(3) < n_open,
        branch=tuple(br for br, _, _ in opened) + ("",) * (3 - n_open),
        group_velocity=np.array([v for _, _, v in opened] + [0.0] * (3 - n_open)),
    )
