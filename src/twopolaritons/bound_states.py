"""Bound states of two polaritons inside spectral gaps.

Inside a gap every channel decays (Im lam > 0).  Eliminating the sites
l != 0 through the three decaying channels leaves the l = 0 site equation
on the contact slots (photon pair, symmetric mix): a 2x2 Hermitian matrix
S(E) whose eigenvalues fall strictly across a gap.  A bound state is a zero
of one eigenvalue, so the change in the number of negative eigenvalues (the
inertia) between the inset gap ends counts the states (_gap_inertia, the
count the ring audit expects too), and Brent's method finds each; its
contact spinor is the eigenvector of that eigenvalue.
Brent's iteration is _brent, scipy.optimize.brentq's step for step, in
the package, which imports no scipy.
Every energy costs one solve for the bare closed channels (momenta and
unit-norm spinors, with no gauge and no ChannelSet) and one contact
elimination on them; the inertia count and Brent read only S's two
eigenvalues, in closed form for a 2x2 Hermitian matrix.  The channel-root
determinant certificate runs once per search, in one batch over the roots
of every energy it evaluated, before any state or error leaves it.  S
does not depend on the phases of the channel spinors, so only the
accepted energy builds a ChannelSet, by find_channel_roots, and
eliminates again on it for W, S and np.linalg.eigh (_certify).
Brent runs in the Chebyshev gap variable s in [0, 1], E(s) = lo + (hi -
lo)(1 - cos(pi s))/2, in which the sqrt(E - edge) onset of S's
eigenvalues at a gap edge is linear.  A sign change where the eigenvalue
does not collapse is refused as a pole of S, and so is a state whose
wavefunction fails the site-equation residual test.  Norms,
composition weights and the Rayleigh quotient are closed-form geometric
sums, exact for any decay rate.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .bands import Gap, phase_fix
from .channels import (
    ChannelState,
    _check_determinant,
    _closed_channels,
    certificate_window,
    contact_elimination,
    expansion_moment,
    find_channel_roots,
)
from .errors import ConditioningError, ParameterError
from .model import PARITY, ModelParams, bloch_matrices

__all__ = [
    "BoundState",
    "find_bound_states",
    "rayleigh_quotient",
]

SIGMA_ACCEPT = 1e-8
RESIDUAL_TOL = 1e-8
L_RESIDUAL = 60
#: The inertia count and the search stay TOL_EDGE_FACTOR * g inside the gap
#: edges (_gap_inertia): at an edge a channel turns open, with no group velocity.
TOL_EDGE_FACTOR = 1e-6
#: Brent's relative tolerance and step budget, scipy.optimize.brentq's defaults.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class BoundState(ChannelState):
    """Certified in-gap eigenstate with its composition weights.

    sigma_min is the smallest |eigenvalue| of the Hermitian contact matrix
    S(E_b), hence its smallest singular value.
    """

    gap: Gap                        # the gap find_bound_states searched
    weights: tuple                  # (photon pair, photon-TLS mix, TLS pair)
    sigma_min: float

    @property
    def decay_rate(self) -> float:
        """Slowest spatial decay exponent, min_j Im lam_j."""
        return float(self.roots.lam.imag.min())


def _eigvalsh2(s) -> tuple:
    """Both eigenvalues of the 2x2 Hermitian s, ascending, in closed form.

    Like np.linalg.eigh, reads the lower triangle and the real diagonal:
    (a + d)/2 -+ hypot((a - d)/2, |s[1, 0]|), within a few eps * ||s|| of
    eigh's and free of overflow and underflow in the off-diagonal term.
    """
    (a, _), (b, d) = s.tolist()
    mean, half = 0.5 * (a.real + d.real), 0.5 * (a.real - d.real)
    r = math.hypot(half, abs(b))
    return mean - r, mean + r


def _brent(f, a: float, b: float, xtol: float) -> float:
    """A zero of f between a and b, where f changes sign, by Brent's zeroin.

    scipy.optimize.brentq's iteration step for step (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4), with its default
    relative tolerance and step budget: xcur is the best point, xblk
    brackets the zero with it and xpre is the previous point.  A step is
    the secant (interpolation, xpre == xblk) or inverse quadratic
    (extrapolation) one if it is short enough, else bisection, and never
    shorter than the tolerance delta.  An end where f vanishes is returned
    at once.  A non-finite value of f, no sign change between the ends, or
    no convergence in 100 steps raises ConditioningError.
    """
    def value(x):
        fx = f(x)
        if not math.isfinite(fx):
            raise ConditioningError(f"Brent's function is {fx} at {x}")
        return fx

    xpre, xcur = a, b
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConditioningError(f"no sign change between f({a}) = {fpre} and f({b}) = {fcur}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise ConditioningError(f"Brent's method did not converge in {_BRENT_MAXITER} steps "
                            f"(last point {xcur}, f = {fcur})")


def _certify(E_b: float, params: ModelParams, gap: Gap) -> BoundState:
    """The certified, normalized state at an accepted energy E_b of ``gap``.

    find_channel_roots builds E_b's ChannelSet and contact_elimination its
    W and contact matrix S.  The contact spinor is the eigenvector of S
    (np.linalg.eigh) whose eigenvalue is smallest in magnitude, and the
    channel amplitudes follow from it.  A second near-zero eigenvalue means
    the state is not unique, and a site residual not below RESIDUAL_TOL * g
    over |l| <= L_RESIDUAL would leave the inventory short: both raise
    ConditioningError rather than being resolved by fiat.
    """
    roots = find_channel_roots(E_b, params)
    w, c, _ = contact_elimination(E_b, roots, params)
    eigs, vecs = np.linalg.eigh(c[:2, :2])
    mags = np.abs(eigs)
    k = int(np.argmin(mags))
    if mags[1 - k] < SIGMA_ACCEPT * max(mags.max(), params.g):
        raise ConditioningError(
            f"null space at E_b = {E_b} has dimension > 1 "
            f"(|eig S| = {mags[1 - k]:.3g}, {mags[k]:.3g}); refusing to pick"
        )
    # the l = 0 spinor is the contact pair (no TLS-pair slot: the hard-core
    # constraint kills it); sites l >= 1 follow the channel expansion
    x = phase_fix(np.concatenate([w[:, :2] @ vecs[:, k], vecs[:, k]]))
    scaled, contact = x[:3], np.concatenate([x[3:], np.zeros(2)])
    # each site l != 0 appears twice (l and its mirror -l, same moduli)
    comp = np.abs(contact) ** 2 + 2.0 * expansion_moment(roots, scaled, 0).diagonal().real
    norm_sq = float(comp.sum())
    comp = comp / norm_sq
    factor = 1.0 / math.sqrt(norm_sq)
    scaled, contact = scaled * factor, contact * factor
    _, residual = certificate_window(L_RESIDUAL, E_b, params, roots, scaled, contact)
    bound = RESIDUAL_TOL * params.g
    if not residual < bound:
        raise ConditioningError(f"state at E_b = {E_b} has site residual "
                                f"{residual:.3g}, not below {bound:.3g}")
    return BoundState(
        params=params, energy=E_b, roots=roots, scaled_amplitudes=scaled,
        contact_spinor=contact, residual_max=residual,
        gap=gap, weights=(float(comp[0]), float(comp[1] + comp[2]), float(comp[3])),
        sigma_min=float(mags[k]),
    )


@contextlib.contextmanager
def _gap_inertia(params: ModelParams, gap: Gap):
    """Count one gap's states by the inertia of S(E): yields (lo, hi, eigs, signs).

    lo and hi are the inset gap ends, TOL_EDGE_FACTOR * g inside the edges;
    a gap narrower than twice that raises ParameterError.  eigs(E) is S's two
    eigenvalues at E in closed form, memoized; each energy costs one solve
    for its bare closed channels and one contact elimination on them, and
    its roots are recorded.  signs = range(n_lo, n_hi) holds the eigenvalues
    whose sign changes between the ends, one state each (find_bound_states
    certifies each or raises), so len(signs) is the gap's bound-state count;
    n_hi < n_lo is a pole of S and raises ConditioningError.  On leaving the
    block, also by an error, one _check_determinant call certifies the roots
    of every energy eigs evaluated, in order: the first failing root raises
    the ConditioningError its energy's own check would, in place of any
    error the block raised.
    """
    tol_edge = TOL_EDGE_FACTOR * params.g
    if gap.hi - gap.lo <= 2.0 * tol_edge:
        raise ParameterError(
            f"gap [{gap.lo}, {gap.hi}] is narrower than twice the edge "
            f"inset {tol_edge}"
        )
    lo, hi = gap.lo + tol_edge, gap.hi - tol_edge

    # S(E) is the (p, d_+) block of the contact matrix C without incident
    # wave (its other rows vanish); each solve's closed roots are kept for
    # the one determinant check below
    energies, closed_lam = [], []

    @functools.cache
    def eigs(E: float):
        closed = _closed_channels(E, params)
        energies.extend([E] * len(closed.lam))
        closed_lam.extend(closed.lam.tolist())
        return _eigvalsh2(contact_elimination(E, closed, params)[1][:2, :2])

    try:
        n_lo = sum(e < 0.0 for e in eigs(lo))
        n_hi = sum(e < 0.0 for e in eigs(hi))
        if n_hi < n_lo:
            raise ConditioningError(f"S(E) has {n_lo} negative eigenvalues at {lo} but "
                                    f"{n_hi} at {hi}: a pole inside the gap spoils the count")
        yield lo, hi, eigs, range(n_lo, n_hi)
    finally:
        _check_determinant(np.array(energies)[:, None, None], bloch_matrices(params),
                           np.array(closed_lam, dtype=complex))


def find_bound_states(params: ModelParams, gap: Gap) -> list:
    """All certified bound states inside one open gap, sorted by energy.

    The search starts from the inertia count (_gap_inertia): each
    eigenvalue of S(E) that changes sign between the inset gap ends holds
    one state, located by Brent's method (_brent) in the gap variable s on
    the closed-form eigenvalues of S (eigh runs only at the accepted
    energy, for the eigenvector); each energy costs one solve for its bare
    closed channels, and each accepted energy one find_channel_roots call.
    One _check_determinant call certifies the roots of every searched energy
    before any state is built, and on the way out of any error the search
    raises: a failing root raises the ConditioningError its energy's own
    check would, in place of the error.
    An empty list is a valid outcome.  A sign change where the eigenvalue
    stays above SIGMA_ACCEPT * max(|S|, g) is a pole of S (a surface state
    of the half chain) or an unresolved zero, and a state whose site
    residual is not below RESIDUAL_TOL * g (_certify) would leave the
    inventory short; both raise ConditioningError.  The search stays
    TOL_EDGE_FACTOR * g inside the gap edges.
    """
    accepted = []
    with _gap_inertia(params, gap) as (lo, hi, eigs, signs):
        # Brent returns an s it has evaluated, so the acceptance gate reuses
        # the eigenvalues at E(s).  E(s) anchors each half at its own end, so
        # E(0) and E(1) are lo and hi exactly and reuse the inertia
        # evaluations; |dE/ds| <= pi/2 (hi - lo) keeps the energy tolerance
        # at 1e-13
        span = hi - lo

        def energy(s: float) -> float:
            c = math.cos(math.pi * s)
            return lo + 0.5 * span * (1.0 - c) if s <= 0.5 else hi - 0.5 * span * (1.0 + c)

        xtol_s = 1e-13 / (0.5 * math.pi * span)
        for k in signs:
            E_b = energy(_brent(lambda s: eigs(energy(s))[k], 0.0, 1.0, xtol_s))
            at = eigs(E_b)
            gate = SIGMA_ACCEPT * max(abs(at[0]), abs(at[1]), params.g)
            if not abs(at[k]) < gate:
                raise ConditioningError(f"eigenvalue {k} of S(E) changes sign at E = {E_b} "
                                        f"but |eig| = {abs(at[k]):.3g} is not below "
                                        f"{gate:.3g}: a pole of S or an unresolved zero")
            accepted.append(E_b)
    # certified only once the block has run its determinant check
    return sorted((_certify(E_b, params, gap) for E_b in accepted), key=lambda s: s.energy)


def rayleigh_quotient(state: BoundState) -> float:
    """Energy expectation of the wavefunction over the whole chain.

    Independent of how the state was found: applies the onsite, hopping
    and contact blocks to the stored amplitudes and contracts.  With
    beta_{-l} = PARITY beta_l, the chain sums of beta_l beta_l^H and
    beta_{l+1} beta_l^H reduce to the lag-0 and lag-1 expansion moments
    plus sites 0 and 1, so the quotient is exact for every decay rate.
    Equals the located energy to solver precision for a genuine eigenstate.
    """
    params = state.params
    b0, b1 = state.wavefunction(np.array([0, 1]))
    m0 = expansion_moment(state.roots, state.scaled_amplitudes, 0)
    m1 = expansion_moment(state.roots, state.scaled_amplitudes, 1)
    g0 = np.outer(b0, np.conj(b0)) + m0 + PARITY @ m0 @ PARITY
    g1 = (m1 + np.outer(b1, np.conj(b0)) + np.outer(b0, np.conj(b1)) @ PARITY
          + PARITY @ np.conj(m1).T @ PARITY)
    mats = bloch_matrices(params)
    num = (np.trace(mats.onsite @ g0)
           + np.trace(mats.hp @ np.conj(g1).T) + np.trace(mats.hm @ g1)
           + np.conj(b0) @ mats.contact @ b0)
    return float(num.real / np.trace(g0).real)
