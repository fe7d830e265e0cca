"""Scattering of two polaritons off their contact interaction.

The incident wave is the exchange-symmetric free state of one branch at
relative momentum q.  Outside the contact site the solution adds one
outgoing wave per channel; at the contact site the spinor is constrained
to (s_p, s_plus, 0, 0): the antisymmetric slot vanishes by exchange
symmetry and the TLS-pair slot because a single two-level system cannot
hold two excitations.  Imposing the site equation at l = 0 and l = 1
closes the problem: the l < 0 equations are the mirror images of l > 0
ones, and for l >= 2 the ansatz solves the free chain identically.

The resulting 8 equations in 5 unknowns are consistent but redundant (two
rows vanish identically); least squares plus a residual certificate is
more robust than picking an "independent" subset by hand.
"""

from dataclasses import dataclass

import numpy as np

from .bands import branch_energy, incident_state
from .channels import channel_expansion, find_channel_roots
from .errors import MatchingError, ParameterError
from .model import (
    MIX_SYM,
    PARITY,
    PHOTON_PAIR,
    TLS_PAIR,
    ModelParams,
    bloch_matrices,
    contact_interaction,
    hop_blocks,
    site_residual,
)

__all__ = [
    "ScatteringSolution",
    "solve_scattering",
    "scattering_wavefunction",
    "probability_current",
]

L_CHECK = 50


def _matching_system(E, beta1, beta2, roots, params,
                     include_interaction=True, free_contact_t=False):
    """Assemble the matching equations at l = 0, 1.

    Unknowns are the l = 1 channel amplitudes (f_j scaled by z_j, which
    keeps every column O(1) even when a channel decays almost instantly),
    then s_p, s_plus, and optionally a freed TLS-pair contact amplitude.
    The freed variant, with the interaction off, turns the system into the
    unconstrained free chain: an exactness oracle for the assembly.
    """
    mats = bloch_matrices(params)
    a_e = mats.onsite - E * np.eye(4)
    hp, hm = hop_blocks(params)
    v = contact_interaction(params) if include_interaction else np.zeros((4, 4))
    mirror_hop = hp @ PARITY + hm

    n = 6 if free_contact_t else 5
    sys = np.zeros((8, n), dtype=complex)
    rhs = np.zeros(8, dtype=complex)

    for j, root in enumerate(roots):
        f = root.vector
        sys[:4, j] = mirror_hop @ f
        sys[4:, j] = (a_e + root.z * hm) @ f
    contact_cols = [PHOTON_PAIR, MIX_SYM] + ([TLS_PAIR] if free_contact_t else [])
    for k, comp in enumerate(contact_cols):
        e = np.zeros(4)
        e[comp] = 1.0
        sys[:4, 3 + k] = (a_e + v) @ e
        sys[4:, 3 + k] = hp @ e

    rhs[:4] = -(mirror_hop @ beta1)
    rhs[4:] = -(a_e @ beta1 + hm @ beta2)
    return sys, rhs


def _solve_matching(sys, rhs):
    x, _, _, _ = np.linalg.lstsq(sys, rhs, rcond=None)
    resid = np.linalg.norm(sys @ x - rhs)
    scale = max(np.linalg.norm(np.column_stack([sys, rhs]), axis=1).max(), 1e-300)
    return x, resid, scale


def _assemble(l, branch, q, params, roots, scaled, contact):
    """Spinors of (incident + outgoing + contact) at integer site(s) l."""
    l = np.asarray(l)
    incident = np.where((l != 0)[..., None], incident_state(branch, q, params, l), 0.0)
    return channel_expansion(l, roots, scaled, contact) + incident


@dataclass(frozen=True)
class ScatteringSolution:
    """Converged scattering state with its certificates."""

    branch: str
    q: float
    params: ModelParams
    energy: float
    roots: tuple
    amplitudes: np.ndarray          # f_j, ordered like roots
    scaled_amplitudes: np.ndarray   # f_j z_j, the l = 1 values (stable gauge)
    s_photon: complex
    s_mix: complex
    ls_residual: float
    residual_max: float
    current_max: float

    def coefficient(self, to_branch: str) -> complex:
        """f(to_branch <- incident) for an open outgoing channel."""
        hits = [j for j, r in enumerate(self.roots)
                if r.is_open and r.branch == to_branch]
        if not hits:
            raise KeyError(f"no open channel labelled {to_branch!r}")
        if len(hits) > 1:
            raise KeyError(f"open channel label {to_branch!r} is ambiguous")
        return complex(self.amplitudes[hits[0]])

    @property
    def open_branches(self):
        return tuple(r.branch for r in self.roots if r.is_open)

    @property
    def contact_spinor(self):
        return np.array([self.s_photon, self.s_mix, 0.0, 0.0])


def scattering_wavefunction(sol: ScatteringSolution, l) -> np.ndarray:
    """Spinor(s) of the scattering state at integer site(s) l."""
    return _assemble(l, sol.branch, sol.q, sol.params, sol.roots,
                     sol.scaled_amplitudes, sol.contact_spinor)


def probability_current(wavefunction, l: int, params: ModelParams) -> float:
    """Discrete flux between sites l and l+1: 2 Im[beta_l^dag hm beta_{l+1}].

    Zero for every exact solution with the exchange symmetry (a standing
    wave); for a pure right-mover it equals the group velocity times the
    squared norm, with a sign set by this orientation convention.
    """
    _, hm = hop_blocks(params)
    if callable(wavefunction):
        b0, b1 = wavefunction(l), wavefunction(l + 1)
    else:
        b0, b1 = wavefunction[l], wavefunction[l + 1]
    return float(2.0 * np.imag(np.conj(b0) @ hm @ b1))


def solve_scattering(branch: str, q: float, params: ModelParams,
                     l_check: int = L_CHECK) -> ScatteringSolution:
    """Solve for the outgoing amplitudes of an incident (branch, q) wave.

    The least-squares residual certifies consistency of the matching
    equations; the returned solution additionally carries the global
    site-residual and flux certificates over |l| <= l_check.
    """
    q = float(q)
    if not 0.0 < q < np.pi:
        raise ParameterError(f"incident momentum must lie in (0, pi), got {q}")
    E = float(branch_energy(branch, q, params))
    roots = find_channel_roots(E, params)
    if branch not in [r.branch for r in roots if r.is_open]:
        raise MatchingError(
            f"incident branch {branch} is not an open channel at its own "
            f"energy; channels found: {[(r.branch, r.is_open) for r in roots]}"
        )
    beta12 = incident_state(branch, q, params, np.array([1, 2]))
    sys, rhs = _matching_system(E, beta12[0], beta12[1], roots, params)
    x, resid, scale = _solve_matching(sys, rhs)
    if resid > 1e-10 * scale:
        raise MatchingError(
            f"matching equations inconsistent: residual {resid:.3g} "
            f"exceeds 1e-10 x scale {scale:.3g}"
        )
    scaled = x[:3]
    amps = scaled / np.array([r.z for r in roots])
    contact = np.array([x[3], x[4], 0.0, 0.0])

    span = np.arange(-l_check - 1, l_check + 2)
    wav = _assemble(span, branch, q, params, roots, scaled, contact)
    res = site_residual(wav, E, (-l_check, l_check), params)
    right = wav[l_check + 1:]       # sites 0 .. l_check + 1
    cur = max(abs(probability_current(right, j, params)) for j in range(0, l_check + 1))

    return ScatteringSolution(
        branch=branch, q=q, params=params, energy=E, roots=tuple(roots),
        amplitudes=amps, scaled_amplitudes=scaled,
        s_photon=complex(x[3]), s_mix=complex(x[4]),
        ls_residual=float(resid / scale),
        residual_max=float(res.max()), current_max=float(cur),
    )
