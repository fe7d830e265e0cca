"""Bound states of two polaritons inside spectral gaps.

Inside a gap every channel decays (Im lam > 0).  Eliminating the sites
l != 0 through the three decaying channels leaves the l = 0 site equation
on the contact slots (photon pair, symmetric mix): a 2x2 Hermitian matrix
S(E) whose eigenvalues fall strictly across a gap.  A bound state is a zero
of one eigenvalue, so the change in the number of negative eigenvalues (the
inertia) between the inset gap ends counts the states, and Brent's method
finds each; its contact spinor is the eigenvector of that eigenvalue.
Every energy costs one find_channel_roots call (one ChannelSet) and one
contact elimination; the inertia count and Brent read only S's two
eigenvalues, in closed form for a 2x2 Hermitian matrix, and
np.linalg.eigh runs once per state, at the accepted energy, on the
cached S there.
Brent runs in the Chebyshev gap variable s in [0, 1], E(s) = lo + (hi -
lo)(1 - cos(pi s))/2, in which the sqrt(E - edge) onset of S's
eigenvalues at a gap edge is linear.  A sign change where the eigenvalue
does not collapse is refused as a pole of S, and a state is accepted only
when its wavefunction passes the site-equation residual test.  Norms,
composition weights and the Rayleigh quotient are closed-form geometric
sums, exact for any decay rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .bands import Gap, phase_fix
from .channels import (
    TOL_EDGE_FACTOR,
    ChannelState,
    certificate_window,
    contact_elimination,
    expansion_moment,
    find_channel_roots,
)
from .errors import ConditioningError, ParameterError
from .model import PARITY, ModelParams, bloch_matrices, contact_interaction

__all__ = [
    "BoundState",
    "find_bound_states",
    "rayleigh_quotient",
]

SIGMA_ACCEPT = 1e-8
RESIDUAL_TOL = 1e-8
L_RESIDUAL = 60


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


def _certify(E_b: float, roots, w, s, params: ModelParams, gap: Gap) -> BoundState:
    """The normalized state at E_b from its channels, W and contact matrix S.

    The contact spinor is the eigenvector of S(E_b) (np.linalg.eigh) whose
    eigenvalue is smallest in magnitude, and the channel amplitudes follow
    from it.  A second near-zero eigenvalue means the state is not unique
    and is reported as an error rather than resolved by fiat.
    """
    eigs, vecs = np.linalg.eigh(s)
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
    return BoundState(
        params=params, energy=E_b, roots=roots, scaled_amplitudes=scaled,
        contact_spinor=contact, residual_max=residual,
        gap=gap, weights=(float(comp[0]), float(comp[1] + comp[2]), float(comp[3])),
        sigma_min=float(mags[k]),
    )


def find_bound_states(params: ModelParams, gap: Gap) -> list:
    """All certified bound states inside one open gap, sorted by energy.

    Each eigenvalue of S(E) that changes sign between the inset gap ends
    holds one state, located by Brent's method in the gap variable s on the
    closed-form eigenvalues of S (eigh runs only at the accepted energy, for
    the eigenvector) and kept if it passes the residual certificate; each
    energy costs one find_channel_roots call.  An empty list is a valid
    outcome.  A sign change where the eigenvalue stays above SIGMA_ACCEPT *
    max(|S|, g) is a pole of S (a surface state of the half chain) or an
    unresolved zero, and raises ConditioningError.  The search stays
    TOL_EDGE_FACTOR * g inside the gap edges.
    """
    g = params.g
    tol_edge = TOL_EDGE_FACTOR * g
    if gap.hi - gap.lo <= 2.0 * tol_edge:
        raise ParameterError(
            f"gap [{gap.lo}, {gap.hi}] is narrower than twice the edge "
            f"inset {tol_edge}"
        )
    lo, hi = gap.lo + tol_edge, gap.hi - tol_edge

    # each energy costs a root-find; Brent returns an s it has evaluated,
    # so the certificate reuses the channels, W and S at E(s).
    # S(E) is the (p, d_+) block of the contact matrix C without incident
    # wave (its other rows vanish); W maps the contact spinor to l = 1.
    @functools.cache
    def contact(E: float):
        roots = find_channel_roots(E, params)
        if roots.is_open.any():
            raise ParameterError(f"E = {E} lies inside a band; bound states live in open gaps")
        w, c, _ = contact_elimination(E, roots, params)
        s = c[:2, :2]
        return roots, w, s, _eigvalsh2(s)

    def eigs(E: float):
        return contact(E)[3]

    n_lo = sum(e < 0.0 for e in eigs(lo))
    n_hi = sum(e < 0.0 for e in eigs(hi))
    if n_hi < n_lo:
        raise ConditioningError(f"S(E) has {n_lo} negative eigenvalues at {lo} but "
                                f"{n_hi} at {hi}: a pole inside the gap spoils the count")
    # E(s) anchors each half at its own end, so E(0) and E(1) are lo and hi
    # exactly and reuse the inertia evaluations; |dE/ds| <= pi/2 (hi - lo)
    # keeps the energy tolerance at 1e-13
    span = hi - lo

    def energy(s: float) -> float:
        c = math.cos(math.pi * s)
        return lo + 0.5 * span * (1.0 - c) if s <= 0.5 else hi - 0.5 * span * (1.0 + c)

    xtol_s = 1e-13 / (0.5 * math.pi * span)
    states = []
    for k in range(n_lo, n_hi):
        E_b = energy(brentq(lambda s: eigs(energy(s))[k], 0.0, 1.0, xtol=xtol_s))
        roots, w, s, at = contact(E_b)
        gate = SIGMA_ACCEPT * max(abs(at[0]), abs(at[1]), g)
        if not abs(at[k]) < gate:
            raise ConditioningError(f"eigenvalue {k} of S(E) changes sign at E = {E_b} "
                                    f"but |eig| = {abs(at[k]):.3g} is not below "
                                    f"{gate:.3g}: a pole of S or an unresolved zero")
        state = _certify(E_b, roots, w, s, params, gap)
        if state.residual_max < RESIDUAL_TOL * g:
            states.append(state)
    states.sort(key=lambda s: s.energy)
    return states


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
    hp, hm = mats.hop_blocks()
    num = (np.trace(mats.onsite @ g0)
           + np.trace(hp @ np.conj(g1).T) + np.trace(hm @ g1)
           + np.conj(b0) @ contact_interaction(params) @ b0)
    return float(num.real / np.trace(g0).real)
