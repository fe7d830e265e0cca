"""Bound states of two polaritons inside spectral gaps.

Inside a gap every channel decays (Im lam > 0).  Eliminating the sites
l != 0 through the three decaying channels leaves the l = 0 site equation
on the contact slots (photon pair, symmetric mix): a 2x2 Hermitian matrix
S(E) whose eigenvalues fall strictly across a gap.  A bound state is a zero
of one eigenvalue, so the change in the number of negative eigenvalues (the
inertia) between the inset gap ends counts the states (_gap_counts, the
count the ring audit expects too), and Brent's method finds each; its
contact spinor is the eigenvector of that eigenvalue.
Brent's iteration is _brent_steps, scipy.optimize.brentq's step for step,
in the package, which imports no scipy.
search_gaps searches all open gaps of one parameter set in lockstep, one
lane per gap: one stacked evaluation of S at the inset ends of every gap,
then one per round at the next energy of every live lane.  Every energy
costs one solve for its bare closed channels (momenta and unit-norm
spinors, with no gauge and no ChannelSet); one contact elimination runs
over the round's stack, and the inertia count and Brent read only S's two
eigenvalues, in closed form for a 2x2 Hermitian matrix, per lane.  Each
lane computes, raises or skips exactly what a search of its gap alone
does; find_bound_states is the one-lane case.  The lanes are the gaps of
one parameter set: a sweep's detunings are still searched one after
another (lanes across a sweep wait for ROADMAP item 5's sweep workload).
The channel-root determinant certificate runs once per search,
in one batch over the roots of every energy any lane evaluated, before any
state or error leaves it.  Each lane keeps a record of every energy it
evaluated: the closed channels and the W and C of their elimination (a
stacked round's slices, each bit for bit its energy's alone).  Brent
accepts an energy it has evaluated, so an accepted energy's state is
built from its record (_certify): _ClosedChannels.gauged turns the
channels into the ChannelSet find_channel_roots would build and W into
its gauge, and C, like S, does not depend on the gauge; np.linalg.eigh of
that S gives the contact spinor.  No energy is solved twice.
Brent runs in the Chebyshev gap variable s in [0, 1], E(s) = lo + (hi -
lo)(1 - cos(pi s))/2, in which the sqrt(E - edge) onset of S's
eigenvalues at a gap edge is linear.  A sign change where the eigenvalue
does not collapse is refused as a pole of S, and so is a state whose
wavefunction fails the site-equation residual test.  Norms,
composition weights and the Rayleigh quotient are closed-form geometric
sums, exact for any decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import Gap, phase_fix
from .channels import (
    ChannelState,
    _check_determinant,
    _ClosedChannels,
    _closed_channels,
    certificate_window,
    contact_elimination,
    expansion_moment,
)
from .errors import ConditioningError, ParameterError
from .model import PARITY, ModelParams, bloch_matrices

__all__ = [
    "BoundState",
    "find_bound_states",
    "rayleigh_quotient",
    "search_gaps",
]

SIGMA_ACCEPT = 1e-8
RESIDUAL_TOL = 1e-8
L_RESIDUAL = 60
#: The inertia count and the search stay TOL_EDGE_FACTOR * g inside the gap
#: edges (_Lane): at an edge a channel turns open, with no group velocity.
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
    """Both eigenvalues of the 2x2 Hermitian s (an array, or its rows as lists), ascending.

    Like np.linalg.eigh, reads the lower triangle and the real diagonal:
    (a + d)/2 -+ hypot((a - d)/2, |s[1, 0]|), within a few eps * ||s|| of
    eigh's and free of overflow and underflow in the off-diagonal term.
    """
    (a, _), (b, d) = s
    mean, half = 0.5 * (a.real + d.real), 0.5 * (a.real - d.real)
    r = math.hypot(half, abs(b))
    return mean - r, mean + r


def _finite(fx: float, x: float) -> float:
    if not math.isfinite(fx):
        raise ConditioningError(f"Brent's function is {fx} at {x}")
    return fx


def _brent_steps(a: float, b: float, xtol: float):
    """Brent's zeroin between a and b as a generator: yields each point x, is
    sent f(x), and returns the zero where f changes sign.

    scipy.optimize.brentq's iteration step for step (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973, ch. 4), with its default
    relative tolerance and step budget: xcur is the best point, xblk
    brackets the zero with it and xpre is the previous point.  A step is
    the secant (interpolation, xpre == xblk) or inverse quadratic
    (extrapolation) one if it is short enough, else bisection, and never
    shorter than the tolerance delta.  An end where f vanishes is returned
    at once.  A non-finite value of f, no sign change between the ends, or
    no convergence in 100 steps raises ConditioningError.  Being resumable,
    it lets the lanes of search_gaps advance together.
    """
    xpre, xcur = a, b
    fpre = _finite((yield xpre), xpre)
    fcur = _finite((yield xcur), xcur)
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
        fcur = _finite((yield xcur), xcur)
    raise ConditioningError(f"Brent's method did not converge in {_BRENT_MAXITER} steps "
                            f"(last point {xcur}, f = {fcur})")


def _certify(E_b: float, params: ModelParams, gap: Gap, roots, w, c) -> BoundState:
    """The certified, normalized state at an accepted energy E_b of ``gap``.

    roots is E_b's ChannelSet, and w and c the W and C of its contact
    elimination (contact_elimination), in the gauge of roots; the search
    passes those of its record of E_b (_ClosedChannels.gauged), so E_b is
    solved once.  The contact spinor is the eigenvector of S = c[:2, :2]
    (np.linalg.eigh) whose eigenvalue is smallest in magnitude, and the
    channel amplitudes follow from it.  A second near-zero eigenvalue means the state is not
    unique, and a site residual not below RESIDUAL_TOL * g over |l| <=
    L_RESIDUAL would leave the inventory short: both raise
    ConditioningError rather than being resolved by fiat.
    """
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


class _Lane:
    """One gap's search: its inset ends, S's eigenvalues at every energy it
    evaluated, those energies' closed roots (for the determinant check), the
    record of each such energy (its closed channels, W and C), the sign
    changes between the ends, the accepted energies, and the error that
    ended it, if one did.

    The ends lie TOL_EDGE_FACTOR * g inside the gap edges; a gap narrower
    than twice that, or one whose edge does not move by it in floating
    point (|E| above about 1e10 at g = 1), is refused with ParameterError
    before any evaluation.
    Any exception the search meets is the lane's outcome, not its
    neighbours': it is kept in error, stops the lane, and states() raises it.
    """

    def __init__(self, params: ModelParams, gap: Gap):
        self.params, self.gap, self.error, self.signs = params, gap, None, range(0)
        self.eigs, self.records, self.energies, self.lam, self.accepted = {}, {}, [], [], []
        tol_edge = TOL_EDGE_FACTOR * params.g
        self.lo, self.hi = gap.lo + tol_edge, gap.hi - tol_edge
        if gap.hi - gap.lo <= 2.0 * tol_edge:
            self.error = ParameterError(f"gap [{gap.lo}, {gap.hi}] is narrower than twice "
                                        f"the edge inset {tol_edge}")
        elif self.lo == gap.lo or self.hi == gap.hi:
            self.error = ParameterError(f"the edge inset {tol_edge} of gap [{gap.lo}, {gap.hi}] "
                                        f"is lost to rounding at this energy scale")

    def energy(self, s: float) -> float:
        """E(s) = lo + (hi - lo)(1 - cos(pi s))/2, each half anchored at its own end,
        so E(0) and E(1) are lo and hi exactly."""
        span, c = self.hi - self.lo, math.cos(math.pi * s)
        return self.lo + 0.5 * span * (1.0 - c) if s <= 0.5 else self.hi - 0.5 * span * (1.0 + c)

    def search(self):
        """Brent on each sign change in turn, in the gap variable s: a generator
        that yields each energy whose eigenvalues it has not got (the caller puts
        them in self.eigs) and leaves the accepted energies in self.accepted.

        Brent returns an s it has evaluated, so the acceptance gate reuses the
        eigenvalues at E(s); |dE/ds| <= pi/2 (hi - lo) keeps the energy
        tolerance at 1e-13.  A sign change where the eigenvalue stays above
        SIGMA_ACCEPT * max(|S|, g) raises ConditioningError.
        """
        energy, eigs = self.energy, self.eigs
        xtol = 1e-13 / (0.5 * math.pi * (self.hi - self.lo))
        for k in self.signs:
            steps = _brent_steps(0.0, 1.0, xtol)
            s = next(steps)
            try:
                while True:
                    E = energy(s)
                    if E not in eigs:
                        yield E
                    s = steps.send(eigs[E][k])
            except StopIteration as stop:
                E_b = energy(stop.value)
            at = eigs[E_b]
            gate = SIGMA_ACCEPT * max(abs(at[0]), abs(at[1]), self.params.g)
            if not abs(at[k]) < gate:
                raise ConditioningError(f"eigenvalue {k} of S(E) changes sign at E = {E_b} "
                                        f"but |eig| = {abs(at[k]):.3g} is not below "
                                        f"{gate:.3g}: a pole of S or an unresolved zero")
            self.accepted.append(E_b)

    def states(self) -> list:
        """The gap's certified states, sorted by energy, each from its energy's record
        (_ClosedChannels.gauged, _certify), or the error that ended its search."""
        if self.error is not None:
            raise self.error
        found = []
        for E_b in self.accepted:
            closed, w, c = self.records[E_b]
            found.append(_certify(E_b, self.params, self.gap, *closed.gauged(w), c))
        return sorted(found, key=lambda s: s.energy)


def _evaluate(params: ModelParams, wanted: list) -> None:
    """S's two eigenvalues at each (lane, E) of wanted, into lane.eigs, by one stacked evaluation.

    Each energy's bare closed channels are solved on their own
    (_closed_channels) and their roots kept on its lane for the determinant
    check; one contact_elimination runs over the stack (a lone energy is
    its own stack), and _eigvalsh2 per lane; each lane records each of its
    energies' (closed channels, W, C), a stack's slices.  If any
    energy is refused, each is evaluated alone, in order, as a search of
    its gap alone meets it: a lane's first refusal becomes its error, its
    roots are kept if its channels were solved, and the lane's later
    energies are dropped.
    """
    if len(wanted) > 1:
        try:
            closed = [_closed_channels(E, params) for _, E in wanted]
            w, c, _ = contact_elimination(np.array([E for _, E in wanted])[:, None, None],
                                          _ClosedChannels.stack(closed), params)
        except Exception:
            for one in wanted:
                if one[0].error is None:
                    _evaluate(params, [one])
            return
        for i, ((lane, E), one, s) in enumerate(zip(wanted, closed, c[:, :2, :2].tolist())):
            lane.energies += [E] * len(one.lam)
            lane.lam += one.lam.tolist()
            lane.eigs[E] = _eigvalsh2(s)
            lane.records[E] = (one, w[i], c[i])
        return
    for lane, E in wanted:
        try:
            closed = _closed_channels(E, params)
            lane.energies += [E] * len(closed.lam)
            lane.lam += closed.lam.tolist()
            w, c, _ = contact_elimination(E, closed, params)
            lane.eigs[E] = _eigvalsh2(c[:2, :2].tolist())
            lane.records[E] = (closed, w, c)
        except Exception as exc:
            lane.error = exc


def _counted_lanes(params: ModelParams, gaps) -> list:
    """One lane per gap, with its inertia count from one stacked evaluation of every inset end.

    signs = range(n_lo, n_hi) holds the eigenvalues of S whose sign changes
    between the ends, one state each, so len(signs) is the gap's bound-state
    count; n_hi < n_lo is a pole of S and ends the lane with ConditioningError.
    """
    lanes = [_Lane(params, gap) for gap in gaps]
    _evaluate(params, [(lane, E) for lane in lanes if lane.error is None
                       for E in (lane.lo, lane.hi)])
    for lane in lanes:
        if lane.error is None:
            n_lo, n_hi = (sum(e < 0.0 for e in lane.eigs[E]) for E in (lane.lo, lane.hi))
            if n_hi < n_lo:
                lane.error = ConditioningError(
                    f"S(E) has {n_lo} negative eigenvalues at {lane.lo} but {n_hi} at "
                    f"{lane.hi}: a pole inside the gap spoils the count")
            else:
                lane.signs = range(n_lo, n_hi)
    return lanes


def _check_roots(params: ModelParams, lanes: list) -> None:
    """Certify the roots of every energy the lanes evaluated, in one _check_determinant call.

    The roots go lane after lane, each lane's in the order it evaluated
    them.  If one fails, each lane is checked alone, and a lane with a
    failing root takes the ConditioningError of its first one, in place of
    its own outcome: what a search of its gap alone raises.
    """
    mats, checked = bloch_matrices(params), [lane for lane in lanes if lane.energies]
    if len(checked) > 1:
        energies = [E for lane in checked for E in lane.energies]
        try:
            _check_determinant(np.array(energies)[:, None, None], mats,
                               np.array([x for lane in checked for x in lane.lam], dtype=complex))
            return
        except Exception:
            pass
    for lane in checked:
        try:
            _check_determinant(np.array(lane.energies)[:, None, None], mats,
                               np.array(lane.lam, dtype=complex))
        except Exception as exc:
            lane.error = exc


def _gap_counts(params: ModelParams, gaps) -> list:
    """Each gap's bound-state count, the inertia count of S(E) between its inset ends.

    One stacked evaluation of every end (_counted_lanes) and one determinant
    check of their roots (_check_roots); the first failing gap, in gap
    order, raises its error.  find_bound_states returns that many states.
    """
    lanes = _counted_lanes(params, gaps)
    _check_roots(params, lanes)
    for lane in lanes:
        if lane.error is not None:
            raise lane.error
    return [len(lane.signs) for lane in lanes]


def search_gaps(params: ModelParams, gaps) -> list:
    """Search every gap of one parameter set in lockstep: one callable per gap, in order,
    that returns the gap's certified states, sorted by energy, or raises its error.

    One lane per gap.  The inertia count (_counted_lanes) evaluates every
    inset end in one stack; then each round evaluates the next energy of
    every live lane's Brent search (_Lane.search) in one stack (_evaluate),
    and a lane whose evaluation or search fails stops there.  One
    _check_determinant call (_check_roots) then certifies the roots of
    every evaluated energy, each accepted energy's among them.  A callable
    certifies its states from its lane's records (_certify) when called, so
    a caller that stops at one gap's error certifies no later gap, and
    returns or raises exactly what find_bound_states does for its gap alone.
    """
    lanes = _counted_lanes(params, gaps)
    runs = {lane: lane.search() for lane in lanes if lane.error is None}
    live = list(runs)
    while live:
        wanted = []
        for lane in live:
            try:
                E = next(runs[lane], None)
            except Exception as exc:
                lane.error = exc
                continue
            if E is not None:
                wanted.append((lane, E))
        _evaluate(params, wanted)
        live = [lane for lane, _ in wanted if lane.error is None]
    _check_roots(params, lanes)
    return [lane.states for lane in lanes]


def find_bound_states(params: ModelParams, gap: Gap) -> list:
    """All certified bound states inside one open gap, sorted by energy: the one-lane search_gaps.

    Each eigenvalue of S(E) that changes sign between the inset gap ends
    holds one state, located by Brent's method in the gap variable s on the
    closed-form eigenvalues of S (eigh runs only at the accepted energy, for
    the eigenvector).  One _check_determinant call certifies the roots of
    every searched energy before any state is built, and on the way out of
    any error the search raises: a failing root raises the
    ConditioningError its energy's own check would, in place of the error.
    An empty list is a valid outcome.  A sign change where the eigenvalue
    stays above SIGMA_ACCEPT * max(|S|, g) is a pole of S (a surface state
    of the half chain) or an unresolved zero, and a state whose site
    residual is not below RESIDUAL_TOL * g (_certify) would leave the
    inventory short; both raise ConditioningError.  The search stays
    TOL_EDGE_FACTOR * g inside the gap edges.
    """
    (found,) = search_gaps(params, (gap,))
    return found()


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
