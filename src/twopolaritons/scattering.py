"""Scattering of two polaritons off their contact interaction.

The incident wave is the exchange-symmetric free state of one branch at
relative momentum q.  Outside the contact site the solution adds one
outgoing wave per channel; at the contact site the spinor is constrained
to (s_p, s_plus, 0, 0): the antisymmetric slot vanishes by exchange
symmetry and the TLS-pair slot because a single two-level system cannot
hold two excitations.  The l < 0 equations are the mirror images of l > 0
ones, and for l >= 2 the ansatz solves the free chain identically.  The
l = 1 equation fixes the outgoing amplitudes from the contact spinor, which
leaves the l = 0 equation on the contact slots: the same 2x2 contact matrix
whose zeros are the bound states, now with the incident wave as its source
(channels.contact_elimination).
"""

from dataclasses import dataclass

import numpy as np

from .bands import branch_energy, incident_state
from .channels import _solve_regular, channel_expansion, contact_elimination, find_channel_roots
from .errors import ConditioningError, ParameterError
from .model import ModelParams, hop_blocks, site_residual

__all__ = [
    "solve_scattering",
    "scattering_wavefunction",
    "probability_current",
]

L_CHECK = 50


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


def probability_current(field, params: ModelParams) -> np.ndarray:
    """Discrete flux over each bond of a run of sites: 2 Im[beta_l^dag hm beta_{l+1}].

    ``field`` holds the spinors of consecutive sites; entry l of the result
    is the current between rows l and l + 1.  Zero for every exact solution
    with the exchange symmetry (a standing wave); for a pure right-mover it
    equals the group velocity times the squared norm, with a sign set by
    this orientation convention.
    """
    _, hm = hop_blocks(params)
    field = np.asarray(field)
    return 2.0 * np.imag(np.einsum("li,ij,lj->l", np.conj(field[:-1]), hm, field[1:]))


def solve_scattering(branch: str, q: float, params: ModelParams) -> ScatteringSolution:
    """Solve for the outgoing amplitudes of an incident (branch, q) wave.

    The contact spinor solves the 2x2 contact problem C b_0 = r; a channel
    block or contact matrix singular to working precision raises
    ConditioningError.  The returned solution carries the site-residual and
    flux certificates over |l| <= L_CHECK.
    """
    q = float(q)
    if not 0.0 < q < np.pi:
        raise ParameterError(f"incident momentum must lie in (0, pi), got {q}")
    E = float(branch_energy(branch, q, params))
    roots = find_channel_roots(E, params)
    if branch not in [r.branch for r in roots if r.is_open]:
        raise ConditioningError(
            f"incident branch {branch} is not an open channel at its own "
            f"energy; channels found: {[(r.branch, r.is_open) for r in roots]}"
        )
    incident = incident_state(branch, q, params, np.array([0, 1]))
    w, c, rhs = contact_elimination(E, roots, params, incident)
    b0 = _solve_regular(c[:2, :2], rhs[:2], f"contact matrix S at E = {E}")
    contact = np.array([b0[0], b0[1], 0.0, 0.0])
    scaled = w @ (contact - incident[0])
    amps = scaled / np.array([r.z for r in roots])

    span = np.arange(-L_CHECK - 1, L_CHECK + 2)
    wav = _assemble(span, branch, q, params, roots, scaled, contact)
    res = site_residual(wav, E, (-L_CHECK, L_CHECK), params)
    cur = probability_current(wav[L_CHECK + 1:], params)    # sites 0 .. L_CHECK + 1

    return ScatteringSolution(
        branch=branch, q=q, params=params, energy=E, roots=tuple(roots),
        amplitudes=amps, scaled_amplitudes=scaled,
        s_photon=complex(b0[0]), s_mix=complex(b0[1]),
        residual_max=float(res.max()), current_max=float(np.abs(cur).max()),
    )
