"""Propagation channels of the relative motion at a fixed real energy.

A wave b_l = z^l F with z = e^{i lam} solves the free chain at energy E when
(M(lam) - E) F = 0.  M(lam) - E is a star around d_+ whose diagonal obeys
D0 + D3 = 2 D1, so det(M(lam) - E) = D1^2 (D0 D3 - 4 g^2) - t^2 D0 D3 with
D0 = 4 xi cos(K/2) w - E, D1 = delta - E + 2 xi cos(K/2) w, D3 = 2 delta - E
and t^2 = 4 xi^2 sin^2(K/2) (1 - w^2), w = cos lam: a real cubic in w whose
three roots are the channels.  Open channels (real lam, positive group
velocity) are outgoing waves; closed ones decay as |z|^l = e^{-Im(lam) l}.

Each root must pass a determinant certificate (_check_determinant): one
stacked np.linalg.det over any number of roots and energies, and at
sin(K/2) = 0, where det vanishes quadratically at the double root D1 = 0,
one of the factors D1 and D0 D3 - 4 g^2 must vanish too.
find_channel_roots runs it on its own three; the bound-state search solves
bare closed channels (_closed_channels, unchecked) at many energies and
certifies all of their roots in one batch before any state or error leaves
the search.  _channel_set is the one builder of a ChannelSet: find_channel_roots
calls it, and _ClosedChannels.gauged turns the search's record of an accepted
energy into that energy's ChannelSet through it, so find_channel_roots runs
in a gap search only to refuse an energy inside a band.

A ChannelState is a contact spinor plus sum_j s_j z_j^(l-1) F_j elsewhere;
contact_elimination fixes the s_j from the contact spinor, channel_expansion
evaluates them site by site (certificate_window over the window a solver
certifies), and expansion_moment and expansion_winding sum them over the
chain and around a ring as geometric series.
"""

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import branch_dispersion, branch_vector, phase_fix
from .errors import ConditioningError, DegenerateParametersError, ParameterError
from .model import PARITY, ModelParams, bloch_matrices, site_residual

__all__ = [
    "ChannelSet",
    "ChannelState",
    "certificate_window",
    "channel_expansion",
    "contact_elimination",
    "expansion_moment",
    "expansion_winding",
    "find_channel_roots",
]

#: Group velocities below this scale-relative floor mean a band edge: the
#: open/closed dichotomy breaks when the group velocity vanishes.
_VELOCITY_FLOOR = 1e-10

_EPS = np.finfo(float).eps

#: |Im lam| beyond which e^|Im lam|, and with it cos lam or sin lam, overflows.
_IM_LAM_MAX = math.log(np.finfo(float).max)

#: The 4x4 identity, for A - E.
_EYE = np.eye(4)
_EYE.flags.writeable = False


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


def expansion_winding(roots, scaled, N: int, thetas) -> list:
    """sum_{k >= 0} e^{i theta l} beta_l over l = u + kN, for u = 1 .. N (rows), per theta.

    Wrapping the sites l >= 1 onto a ring of N sites collects each residue
    u as a geometric series in e^{i theta N} z_j^N, so row u - 1 is
    sum_j s_j e^{i theta u} z_j^(u-1) F_j / (1 - e^{i theta N} z_j^N):
    exact for any set of decaying channels, at a cost free of the decay.
    Every theta shares the powers of z.
    """
    u = np.arange(1, N + 1)[:, None]
    z, scaled = roots.z, np.asarray(scaled)
    power, wrap = np.power(z, u - 1), z**N
    folds = (np.exp(1j * theta * u) * power / (1.0 - np.exp(1j * theta * N) * wrap)
             for theta in thetas)
    return [(scaled * fold) @ roots.vectors.T for fold in folds]


def contact_elimination(E, roots, params, incident=None):
    """Eliminate the sites l != 0 of a channel expansion: (W, C, r).

    With b_l = inc_l + sum_j s_j z_j^(l-1) F_j for l >= 1 and b_-l = PARITY
    b_l, rows 0-2 of the l = 1 equation fix the l = 1 channel amplitudes
    from the contact spinor, s = W (b_0 - inc_0) with W = -M_1^-1 hp[:3]
    and M_1 = ((A - E) Phi + hm Phi Z)[:3] (row 3 holds for every channel,
    and M_1 stays regular as z -> 0).  The l = 0 equation then reads
    C b_0 = r with C = A + V - E + (hp PARITY + hm) Phi W and
    r = -(hp PARITY + hm)(inc_1 - Phi W inc_0).  ``incident`` holds the
    free spinors (inc_0, inc_1) of one energy; None, for a bound state,
    means zero.  E may also be a stack of energies shaped (n, 1, 1), with
    roots their closed channels stacked by _ClosedChannels.stack: W and C
    then stack too, each lane bit for bit what its energy alone gives.  An
    M_1 singular to working precision raises ConditioningError quoting its
    E, a stack's first such lane's.
    """
    mats = bloch_matrices(params)
    a_e = mats.onsite - E * _EYE
    phi = roots.vectors
    m1 = (a_e @ phi + mats.hm @ phi * roots.z)[..., :3, :]
    w = -_solve_regular(m1, mats.hp[:3], "channel block M_1 at E = {}", E)
    c = a_e + mats.contact + mats.mirror_hop @ phi @ w
    if incident is None:
        return w, c, np.zeros(4, dtype=complex)
    inc0, inc1 = incident
    return w, c, -mats.mirror_hop @ (inc1 - phi @ (w @ inc0))


def _solve_regular(m, rhs, what: str, E=None) -> np.ndarray:
    """Solve m x = rhs by one SVD, refusing cond(m) >= 1/eps (an LU flags only zero pivots).

    The 2-norm condition number s[0] / s[-1] and the solve
    Vh^H diag(1/s) U^H rhs share the factorization, np.linalg.svd (LAPACK
    gesdd); an SVD that fails to converge raises ConditioningError.  rhs is
    1-D or 2-D.  m may be a stack of matrices on a leading axis, one per
    energy of E, each solved as if alone.  what names m in a refusal; given
    E, its {} takes the energy: the first refused lane's, or every energy
    of a stack whose SVD failed.
    """
    try:
        u, s, vh = np.linalg.svd(m)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"SVD failed on {_named(what, E)}: {exc}") from None
    rows = s.tolist()
    for lane, row in enumerate(rows if s.ndim > 1 else [rows]):
        if not row[0] < row[-1] / _EPS:
            cond = row[0] / row[-1] if row[-1] > 0.0 else math.inf
            raise ConditioningError(f"{_named(what, E, lane)} is singular to working precision "
                                    f"(cond {cond:.3g})")
    return (np.conj(vh.swapaxes(-1, -2)) / s[..., None, :]) @ (np.conj(u.swapaxes(-1, -2)) @ rhs)


def _named(what: str, E, lane=None) -> str:
    """what with lane's energy of E in its {}, or every energy of a stack if no lane is named."""
    if E is None:
        return what
    energies = np.ravel(E).tolist()
    return what.format(energies if lane is None and len(energies) > 1 else energies[lane or 0])


def _det_roots(E: float, mats) -> tuple:
    """Roots y = a cos lam of det(M(lam) - E) = c3 (y^3 + b y^2 + c y + d): (ys, terms, poly, det).

    terms = (a, s, e0, e1, d3, f, sg, double): a = 2 xi cos(K/2), t = s sin lam,
    D0 = 2 y + e0, D1 = y + e1, D3 = d3, f = 4 g^2, sg = sqrt2 g and double =
    mats.double_root; det(y) is the cubic and its slope from the factored form.  A
    vanishing a or D3 is refused.  If double (s = 0 to rounding) the roots are D1 = 0
    twice, ys[0] and ys[1], and D0 D3 = f; otherwise Newton from Kahan's start ("To
    solve a real cubic equation", 1986) finds a real root, and the other two, m +- h,
    solve G = det / (c3 (y - root)) = (y - m)^2 - h^2, with m, h^2 from G, G' as
    accurate as det.
    """
    (a00, sg, _, _), (_, a11, _, _), _, (_, _, _, a33) = mats.onsite.tolist()
    a, s = mats.hop_cos[1, 1].item(), mats.hop_sin[1, 2].item()
    if not abs(a) > 1.5 * _EPS * math.hypot(a, s):
        raise DegenerateParametersError(
            "photon pair does not hop: 2 xi cos(K/2) = 0 on the Brillouin "
            "zone boundary K = pi (or at xi = 0), so the hopping block loses rank")
    e0, e1, d3, f = a00 - E, a11 - E, a33 - E, 2.0 * sg * sg
    if abs(d3) <= _EPS * abs(E):
        raise DegenerateParametersError(
            "energy hits twice the detuning; the third channel degenerates")
    s2, sig = s * s, (s / a) ** 2       # t^2 = s2 - sig y^2

    def det(y):
        u, d0 = y + e1, 2.0 * y + e0
        q, tt = d0 * d3 - f, s2 - sig * y * y
        return u * u * q - tt * d0 * d3, 2.0 * (u * q + d3 * (u * u - tt + sig * y * d0))

    def polish(y):      # Newton on det while its steps shrink
        last = math.inf
        for _ in range(100):
            value, slope = det(y)
            if not slope or not abs(value / slope) < last:
                break
            y, last = y - value / slope, abs(value / slope)
        return y

    q0, r0, c3 = e0 * d3 - f, e0 * d3, 2.0 * d3 * (1.0 + sig)
    b, d = (q0 + 4.0 * e1 * d3 + sig * r0) / c3, (e1 * e1 * q0 - s2 * r0) / c3
    c = (2.0 * e1 * q0 + 2.0 * (e1 * e1 - s2) * d3) / c3
    double = mats.double_root
    out = ((a, s, e0, e1, d3, f, sg, double), (c3, b, c, d), det)
    if double:
        return ([-e1, -e1, 0.5 * (f / d3 - e0)], *out)
    x = -b / 3.0
    fx, dfx = ((x + b) * x + c) * x + d, (3.0 * x + 2.0 * b) * x + c
    reach = abs(fx) ** (1.0 / 3.0)
    if dfx < 0.0:
        reach = 1.324718 * max(reach, math.sqrt(-dfx))
    root = polish(x - math.copysign(reach, fx))
    mid = -0.5 * (b + root)
    value, slope = det(mid)
    g, dg = slope / c3, 0.0         # G and G' if the root is the midpoint
    if mid != root:
        g = value / (c3 * (mid - root))
        dg = (slope / c3 - g) / (mid - root)
    sq = 0.25 * dg * dg - g
    half, mid = (math.sqrt(sq) if sq >= 0.0 else cmath.sqrt(sq)), mid - 0.5 * dg
    return ([root, polish(mid + half), polish(mid - half)], *out)


def _closed_spinor(y, lam, terms) -> tuple:
    """(-sg d_+ / D0, d_+, d_-, -sg d_+ / D3) D0 D3 at a simple root y = a cos lam, (d_+, d_-)
    null in the larger row of [[D1 Q / (D0 D3), t], [t, D1]], Q = D0 D3 - f; D0 -> 0 at K = pi."""
    _, s, e0, e1, d3, f, sg, _ = terms
    u, d0 = y + e1, 2.0 * y + e0
    dd, t = d0 * d3, s * cmath.sin(lam)
    if abs(dd - f) >= abs(dd):
        return (-sg * t * d3, t * dd, -u * (dd - f), -sg * t * d0)
    return (-sg * u * d3, u * dd, -t * dd, -sg * u * d0)


def _open_channel(lam_abs, E, params, taken):
    """The outgoing wave of an open root at +-lam_abs: (branch, lam, group velocity).

    Each sign of lam evaluates the dressed levels once (branch_dispersion).  The closest
    match to E of a branch not ``taken`` by another root wins: AB and BA both match the
    double root at K = 0, and both roots next to it."""
    tol = 1e-8 * max(1.0, abs(E))
    floor = _VELOCITY_FLOOR * (params.g + abs(params.xi))
    kept = []
    for lam in (lam_abs, -lam_abs):
        for br, (energy, v) in branch_dispersion(lam, params).items():
            miss = abs(energy - E)
            if miss > tol:
                continue
            if abs(v) <= floor:
                raise ConditioningError(
                    f"open channel {br} has vanishing group velocity at lam={lam:.6g}")
            if v > 0.0:
                kept.append((br in taken, miss, br, lam, v))
    if not kept:
        raise DegenerateParametersError(
            f"open root at |lam|={lam_abs:.6g} admits 0 outgoing waves, expected 1")
    return min(kept)[2:]


class _ClosedChannels(NamedTuple):
    """A gap energy's closed channels: lam, z and the unit-norm, ungauged spinor columns;
    contact_elimination reads .z and .vectors as it reads a ChannelSet's.  The gap search
    keeps one per evaluated energy, and gauged turns an accepted energy's into its
    ChannelSet."""

    lam: np.ndarray             # (n,) complex
    z: np.ndarray               # (n,) complex
    vectors: np.ndarray         # (4, n)

    def gauged(self, w: np.ndarray) -> tuple:
        """This energy's ChannelSet, as find_channel_roots builds it (_channel_set), and W
        of this record's contact elimination in its gauge.

        phase_fix multiplies unit-norm spinor j by a factor f_j, so the amplitudes
        s = W b_0 on the gauged spinors divide by it: row j of W.  C does not depend on
        the gauge.
        """
        roots = _channel_set(self.lam, self.z, [], [], self.vectors)
        old = self.vectors
        f = (roots.vectors * np.conj(old)).sum(axis=0) / (np.abs(old) ** 2).sum(axis=0)
        return roots, w / f[:, None]

    @staticmethod
    def stack(records) -> "_ClosedChannels":
        """The records of several energies as one, on a leading axis; z is shaped
        (n, 1, 3), so that it scales the spinor columns as one record's z does."""
        lam, z, vectors = zip(*records)
        return _ClosedChannels(np.array(lam), np.array(z)[:, None, :], np.array(vectors))


def _channel_roots(E: float, params: ModelParams) -> tuple:
    """The root solve at E: (bloch_matrices record, open |lam| ascending, closed lam, spinors).

    Each root w = cos lam of det(M(lam) - E) is taken with the lam of its decaying
    wave; a real lam, exact for a real root in [-1, 1], is an open channel.  Closed
    channels have Re lam in (-pi/2, 3pi/2] and come ordered by (Im lam, Re lam); at
    sin(K/2) = 0 the double root D1 = 0 has spinors (0, 0, 1, 0) and
    (sqrt2 g, D3, 0, -sqrt2 g), elsewhere _closed_spinor gives each, unnormalized."""
    if not math.isfinite(E):
        raise ParameterError(f"energy must be finite, got {E!r}")
    mats = bloch_matrices(params)
    ys, terms, _, _ = _det_roots(E, mats)
    a, _, _, _, d3, _, sg, double = terms
    roots = [1j * cmath.acosh(y / a) for y in ys]       # Im lam >= 0
    if not all(map(cmath.isfinite, roots)):
        raise ConditioningError(f"channel momenta overflow at E = {E}: xi = {params.xi:.3g}")
    closed = sorted(((lam + 2.0 * math.pi if lam.real <= -0.5 * math.pi else lam, j)
                     for j, lam in enumerate(roots) if lam.imag),
                    key=lambda c: (c[0].imag, c[0].real))
    pair = ((0.0, 0.0, 1.0, 0.0), (sg, d3, 0.0, -sg))
    spinors = [pair[j] if double and j < 2 else _closed_spinor(ys[j], lc, terms)
               for lc, j in closed]
    open_abs = sorted(abs(r.real) for r in roots if not r.imag)
    return mats, open_abs, [lc for lc, _ in closed], spinors


def _det_certificate(E, mats, lam: np.ndarray) -> tuple:
    """|det(M(lam) - E)|, its Hadamard-style scale and a factor ratio at each root lam.

    E is one energy, or one per root as an array of shape lam.shape + (1, 1);
    one np.linalg.det runs on the stacked M(lam) - E.  The scale is the
    product of row norms: those of A - E, plus those of hop_cos and hop_sin
    weighted by max(1, |cos lam|) and max(1, |sin lam|) to follow a closed
    decay.  cos lam and sin lam must be finite (_check_determinant screens).

    The third list is 0 at each root unless sin(K/2) = 0 (mats.double_root):
    there det = D1^2 (D0 D3 - f) vanishes quadratically at the double root
    D1 = 0, so |det| bounds that root's error only to the square root of its
    tolerance, and the list holds the smaller of |D1| and |D0 D3 - f|
    against its own scale.  D0, D1 and D3 are the diagonal of M(lam) - E,
    and each factor's scale is the product of the row scales above over the
    rows it is built from: row 1 for D1, rows 0 and 3 for D0 D3 - f.
    """
    trig = np.array((np.cos(lam), np.sin(lam)))
    a_e = mats.onsite - E * _EYE
    stack = (trig.T @ mats.hop_stack).reshape(lam.shape + (4, 4))
    stack += a_e
    weights = np.abs(trig.T)
    rows = np.maximum(weights, 1.0, out=weights) @ mats.hop_norms
    rows += np.hypot(a_e.diagonal(0, -2, -1), mats.offdiag_norms)
    vals, scales = np.abs(np.linalg.det(stack)).tolist(), rows.prod(axis=-1).tolist()
    if not mats.double_root:
        return vals, scales, [0.0] * len(vals)
    d0, d1, _, d3 = stack.diagonal(0, -2, -1).T
    r0, r1, _, r3 = rows.T
    f = 2.0 * mats.onsite[0, 1] ** 2
    return vals, scales, np.minimum(np.abs(d1) / r1, np.abs(d0 * d3 - f) / (r0 * r3)).tolist()


def _check_determinant(E, mats, lam: np.ndarray) -> None:
    """Refuse a root lam whose |det(M(lam) - E)| exceeds 1e-9 of its scale (_det_certificate).

    At sin(K/2) = 0 (mats.double_root) a root must also bring one factor of det
    below 1e-9 of that factor's scale (_det_certificate), or an error in
    a member of the double root D1 = 0 would pass.  The first failing root
    in lam's order raises ConditioningError.  A root whose cos and sin are
    not finite (NaN, infinite or |Im lam| > _IM_LAM_MAX) fails before numpy
    sees it, so it raises no floating-point warning; a NaN or infinite
    |det|, scale or factor ratio fails too.
    """
    finite = [abs(x.real) < math.inf and abs(x.imag) <= _IM_LAM_MAX for x in lam.tolist()]
    safe = lam if all(finite) else np.where(finite, lam, 0.0)
    vals, scales, factors = _det_certificate(E, mats, safe)
    for j, (ok, val, scale, factor) in enumerate(zip(finite, vals, scales, factors)):
        if not (ok and val <= 1e-9 * scale < math.inf and factor <= 1e-9):
            raise ConditioningError(
                f"channel root lam={lam[j]:.6g} fails the determinant condition: "
                + ("its cos and sin are not finite" if not ok
                   else f"|det| = {val:.3g} vs scale {scale:.3g}"
                   if not val <= 1e-9 * scale < math.inf
                   else f"neither D1 nor D0 D3 - 4 g^2 vanishes at sin(K/2) = 0 "
                        f"(smaller factor {factor:.3g} of its scale)")
            )


def _closed_channels(E: float, params: ModelParams) -> _ClosedChannels:
    """The three closed channels at a gap energy E, unit-norm and ungauged.

    find_channel_roots' root solve and closed spinors, with no gauge, no ChannelSet and
    no determinant certificate: the caller runs _check_determinant on the returned lam.
    The spinors are normalized, since cond(M_1) depends on the column norms.  An energy
    with a real root goes to find_channel_roots, which refuses it where it refuses any
    energy; otherwise it lies inside a band and raises ParameterError."""
    _, opened, lam, spinors = _channel_roots(E, params)
    if opened:
        find_channel_roots(E, params)
        raise ParameterError(f"E = {E} lies inside a band; bound states live in open gaps")
    unit = []
    for spinor in spinors:
        norm = math.hypot(*map(abs, spinor))
        unit.append([x / norm for x in spinor])
    lam = np.array(lam, dtype=complex)
    return _ClosedChannels(lam, np.exp(1j * lam), np.array(unit, dtype=complex).T)


def _channel_set(lam, z, opened: list, open_vectors: list, closed_spinors) -> ChannelSet:
    """One energy's channels as a ChannelSet: lam and z, open channels first.

    opened holds each open channel's (branch, lam, group velocity) and open_vectors its
    spinor; closed_spinors, the (4, n) columns of the closed channels, are gauged by
    phase_fix, and a closed channel has branch "" and group velocity 0."""
    n_closed = len(lam) - len(opened)
    vectors = list(open_vectors)
    if n_closed:
        vectors.append(phase_fix(closed_spinors))
    return ChannelSet(
        lam=lam, z=z, vectors=np.column_stack(vectors),
        is_open=np.arange(3) < len(opened),
        branch=tuple(br for br, _, _ in opened) + ("",) * n_closed,
        group_velocity=np.array([v for _, _, v in opened] + [0.0] * n_closed),
    )


def find_channel_roots(E: float, params: ModelParams) -> ChannelSet:
    """The three outgoing channels at energy E, open first, as one ChannelSet.

    The roots and closed spinors are _channel_roots'; open channels carry their branch
    spinors and closed ones are gauged by phase_fix (_channel_set).  Degenerate
    parameters and band edges raise; each channel satisfies the determinant condition
    to 1e-9 of the Hadamard scale of M(lam) - E at its lam, which follows |cos lam| and
    |sin lam| as |z| -> 0."""
    mats, open_abs, closed, spinors = _channel_roots(E, params)
    opened = []
    for lam_abs in open_abs:
        opened.append(_open_channel(lam_abs, E, params, {o[0] for o in opened}))
    opened.sort(key=lambda o: (o[1], o[0]))
    lam = np.array([lo for _, lo, _ in opened] + closed, dtype=complex)
    open_vectors = [branch_vector(br, lo, params) for br, lo, _ in opened]
    _check_determinant(E, mats, lam)
    return _channel_set(lam, np.exp(1j * lam), opened, open_vectors,
                        np.array(spinors, dtype=complex).T)
