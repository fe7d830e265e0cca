"""Bound states of two polaritons inside spectral gaps.

Inside a gap every channel decays (Im lam > 0), so a normalizable state
exists only at isolated energies where the homogeneous matching system
loses rank.  We track the smallest singular value of that system across
the gap, refine each dip by Brent's method, and accept a state only when
its wavefunction independently passes the site-equation residual test.
Singular values rather than determinants: the system is rectangular, and
sigma_min is real, non-negative and convention-free.  Norms, composition
weights and the Rayleigh quotient are closed-form geometric sums over the
three decaying channels, exact for any decay rate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .bands import Gap, phase_fix
from .channels import TOL_EDGE_FACTOR, channel_expansion, expansion_moment, find_channel_roots
from .errors import DegenerateBoundStateError, ParameterError
from .model import PARITY, ModelParams, bloch_matrices, contact_interaction, hop_blocks, site_residual
from .scattering import _matching_system

__all__ = [
    "BoundState",
    "bound_matching_matrix",
    "build_bound_wavefunction",
    "find_bound_states",
    "rayleigh_quotient",
]

# Scan resolution across a gap.  400 uniform points resolve any state
# deeper than ~width/400; the extra geometric points near each edge catch
# states that hug a band edge, which is exactly where the strong-detuning
# states sit (binding can drop below 1e-5 g while staying certifiable).
N_SCAN = 400
N_EDGE = 48

SIGMA_ACCEPT = 1e-8
RESIDUAL_TOL = 1e-8
L_RESIDUAL = 60


def bound_matching_matrix(E: float, params: ModelParams) -> np.ndarray:
    """Homogeneous 8x5 system for the channel and contact amplitudes.

    Columns order: three decaying-channel amplitudes in the l = 1 gauge,
    then the photon-pair and symmetric-mix contact amplitudes.
    """
    roots = find_channel_roots(float(E), params)
    if any(r.is_open for r in roots):
        raise ParameterError(
            f"E = {E} lies inside a band; bound states live in open gaps"
        )
    zero = np.zeros(4)
    sys, _ = _matching_system(float(E), zero, zero, roots, params)
    return sys


def _sigma_profile(E: float, params: ModelParams):
    """(singular values, row-norm scale) of the matching matrix at E."""
    sys = bound_matching_matrix(E, params)
    svals = np.linalg.svd(sys, compute_uv=False)
    scale = max(float(np.linalg.norm(sys, axis=1).max()), 1e-300)
    return svals, scale


def _scan_grid(lo: float, hi: float, tol_edge: float) -> np.ndarray:
    grid = np.linspace(lo, hi, N_SCAN)
    reach = 0.25 * (hi - lo)
    start = 0.2 * tol_edge
    if reach > 2.0 * start:
        # geometric offsets from each inset end, starting a fraction of the
        # inset inside it, so a dip within ~tol_edge of the searchable
        # boundary still shows up as an interior minimum
        offsets = np.geomspace(start, reach, N_EDGE)
        grid = np.concatenate([grid, lo + offsets, hi - offsets])
        grid = np.unique(grid)
    return grid


def _refine_dip(fn, a: float, b: float, c: float) -> float:
    if not (fn(b) < fn(a) and fn(b) < fn(c)):
        return float(b)
    # sigma is V-shaped at a root, so sigma^2 is locally parabolic and
    # Brent's parabolic steps converge superlinearly where golden crawls
    res = minimize_scalar(lambda e: fn(e) ** 2, bracket=(a, b, c),
                          method="brent", options={"xtol": 1e-12})
    return float(res.x)


def _scan_sigma_k0(es: np.ndarray, params: ModelParams) -> np.ndarray:
    """sigma_min of the matching matrix at every energy in one sweep.

    Valid only when the sin-block vanishes: then M(lam) = A + B cos(lam),
    the root pair is closed-form, and the whole grid reduces to stacked
    small eigenproblems.  Detection-only fast path; every candidate is
    re-certified through the scalar machinery afterwards.  Points where a
    root degenerates come back as nan and are simply never minima.
    """
    es = np.asarray(es, dtype=float)
    mats = bloch_matrices(params)
    a, b = mats.onsite, mats.hop_cos
    hop = 2.0 * params.xi * np.cos(0.5 * params.K)
    d, g = params.delta, params.g

    with np.errstate(divide="ignore", invalid="ignore"):
        w_mixed = (es - d) / hop
        w_like = (4.0 * g * g + 2.0 * es * d - es * es) \
            / (2.0 * (2.0 * d - es)) / hop
        ws = np.stack([w_mixed, w_like], axis=1)
        # |z| < 1 branch of z^2 - 2wz + 1 = 0, written to avoid cancellation
        zs = np.sign(ws) / (np.abs(ws) + np.sqrt(ws * ws - 1.0))

    # grid points where a root degenerates (E at 2*Delta, or drifting onto
    # a band edge) get placeholder roots now and nan sigma at the end
    bad = ~(np.isfinite(ws) & np.isfinite(zs)).all(axis=1)
    if bad.any():
        ws[bad] = 2.0
        zs[bad] = 0.5

    m = a + ws[..., None, None] * b
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(np.abs(vals - es[:, None, None]), axis=2)
    near = np.take_along_axis(vecs, order[:, :, None, :], axis=3)

    n = len(es)
    f = np.stack([near[:, 0, :, 0],   # double root, 2D eigenspace
                  near[:, 0, :, 1],
                  near[:, 1, :, 0]], axis=1)
    z3 = np.stack([zs[:, 0], zs[:, 0], zs[:, 1]], axis=1)

    hp, hm = hop_blocks(params)
    mirror_hop = (hp @ PARITY + hm).real
    v = contact_interaction(params)

    sys = np.zeros((n, 8, 5), dtype=complex)
    sys[:, :4, :3] = np.einsum("rs,njs->nrj", mirror_hop, f)
    af = np.einsum("rs,njs->njr", a, f)
    sys[:, 4:, :3] = np.transpose(
        af - es[:, None, None] * f
        + z3[..., None] * np.einsum("rs,njs->njr", hm, f),
        (0, 2, 1),
    )
    av = a + v
    for k, comp in enumerate((0, 1)):
        sys[:, :4, 3 + k] = av[:, comp]
        sys[:, comp, 3 + k] -= es
        sys[:, 4:, 3 + k] = hp[:, comp]
    sigma = np.linalg.svd(sys, compute_uv=False)[:, -1]
    sigma[bad] = np.nan
    return sigma


@dataclass(frozen=True)
class BoundState:
    """Certified in-gap eigenstate with its composition weights."""

    gap_id: int
    params: ModelParams
    energy: float
    roots: tuple
    amplitudes: np.ndarray          # b_j multiplying z_j^l, ordered like roots
    scaled_amplitudes: np.ndarray   # b_j z_j, the l = 1 values (stable gauge)
    b_photon: complex
    b_mix: complex
    weights: tuple                  # (photon pair, photon-TLS mix, TLS pair)
    sigma_min: float
    residual_max: float

    @property
    def contact_spinor(self):
        return np.array([self.b_photon, self.b_mix, 0.0, 0.0])

    @property
    def decay_rate(self) -> float:
        """Slowest spatial decay exponent, min_j Im lam_j."""
        return min(r.lam.imag for r in self.roots)

    def wavefunction(self, l) -> np.ndarray:
        """Spinor(s) of the normalized state at integer site(s) l."""
        return channel_expansion(l, self.roots, self.scaled_amplitudes, self.contact_spinor)


def build_bound_wavefunction(E_b: float, params: ModelParams,
                             gap_id: int = 0) -> BoundState:
    """Normalize and certify the bound state at energy E_b.

    The coefficients come from the right singular vector of the smallest
    singular value; a second near-zero singular value means the state is
    not unique and is reported as an error rather than resolved by fiat.
    """
    E_b = float(E_b)
    roots = find_channel_roots(E_b, params)
    if any(r.is_open for r in roots):
        raise ParameterError(
            f"E_b = {E_b} lies inside a band; bound states live in open gaps"
        )
    zero = np.zeros(4)
    sys, _ = _matching_system(E_b, zero, zero, roots, params)
    _, svals, vh = np.linalg.svd(sys)
    scale = max(float(np.linalg.norm(sys, axis=1).max()), 1e-300)
    if svals[-2] < SIGMA_ACCEPT * scale:
        raise DegenerateBoundStateError(
            f"null space at E_b = {E_b} has dimension > 1 "
            f"(sigma = {svals[-2]:.3g}, {svals[-1]:.3g}); refusing to pick"
        )
    x = phase_fix(np.conj(vh[-1]))

    # the l = 0 spinor is the contact pair (no TLS-pair slot: the hard-core
    # constraint kills it); sites l >= 1 follow the channel expansion
    scaled = x[:3]
    contact = np.array([x[3], x[4], 0.0, 0.0])
    # each site l != 0 appears twice (l and its mirror -l, same moduli)
    comp = np.abs(contact) ** 2 + 2.0 * expansion_moment(roots, scaled, 0).diagonal().real
    norm_sq = float(comp.sum())
    comp = comp / norm_sq
    weights = (float(comp[0]), float(comp[1] + comp[2]), float(comp[3]))
    factor = 1.0 / math.sqrt(norm_sq)
    scaled = scaled * factor
    contact = contact * factor

    window = np.arange(-L_RESIDUAL - 1, L_RESIDUAL + 2)
    field = channel_expansion(window, roots, scaled, contact)
    res = site_residual(field, E_b, (-L_RESIDUAL, L_RESIDUAL), params)

    return BoundState(
        gap_id=int(gap_id),
        params=params,
        energy=E_b,
        roots=tuple(roots),
        amplitudes=scaled / np.array([r.z for r in roots]),
        scaled_amplitudes=scaled,
        b_photon=complex(contact[0]),
        b_mix=complex(contact[1]),
        weights=weights,
        sigma_min=float(svals[-1]),
        residual_max=float(res.max()),
    )


def find_bound_states(params: ModelParams, gap: Gap, *,
                      tol_edge: float = None,
                      sigma_accept: float = SIGMA_ACCEPT,
                      residual_tol: float = RESIDUAL_TOL) -> list:
    """All certified bound states inside one open gap, sorted by energy.

    Scans sigma_min on a dense grid inset from the gap edges, refines
    every local dip by Brent's method, and keeps a candidate only if the
    refined sigma_min collapses and the state passes the residual
    certificate.  An empty list is a valid outcome.
    """
    g = params.g
    if tol_edge is None:
        tol_edge = TOL_EDGE_FACTOR * g
    if gap.hi - gap.lo <= 2.0 * tol_edge:
        raise ParameterError(
            f"gap [{gap.lo}, {gap.hi}] is narrower than twice the edge "
            f"inset {tol_edge}"
        )
    grid = _scan_grid(gap.lo + tol_edge, gap.hi - tol_edge, tol_edge)

    # each energy costs a root-find and an SVD; the dip pre-check, Brent's
    # bracket set-up and the acceptance test revisit the same energies
    @functools.cache
    def profile(E: float):
        return _sigma_profile(E, params)

    def sigma(E: float) -> float:
        return float(profile(E)[0][-1])

    if np.sin(0.5 * params.K) == 0.0:
        values = _scan_sigma_k0(grid, params)
    else:
        values = np.array([sigma(E) for E in grid])

    states = []
    for i in range(1, len(grid) - 1):
        if not (values[i] <= values[i - 1] and values[i] <= values[i + 1]):
            continue
        E_b = _refine_dip(sigma, grid[i - 1], grid[i], grid[i + 1])
        svals, scale = profile(E_b)
        if svals[-1] >= sigma_accept * scale:
            continue
        if any(abs(E_b - s.energy) < 1e-8 * g for s in states):
            continue
        state = build_bound_wavefunction(E_b, params, gap_id=gap.index)
        if state.residual_max < residual_tol * g:
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
    hp, hm = hop_blocks(params)
    num = (np.trace(bloch_matrices(params).onsite @ g0)
           + np.trace(hp @ np.conj(g1).T) + np.trace(hm @ g1)
           + np.conj(b0) @ contact_interaction(params) @ b0)
    return float(num.real / np.trace(g0).real)
