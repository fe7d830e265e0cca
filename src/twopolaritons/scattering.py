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
from .channels import (ChannelState, _solve_regular, certificate_window, channel_expansion,
                       contact_elimination, find_channel_roots)
from .errors import ConditioningError, ParameterError
from .model import ModelParams, hop_blocks

__all__ = [
    "solve_scattering",
    "probability_current",
]

L_CHECK = 50


@dataclass(frozen=True)
class ScatteringSolution(ChannelState):
    """Converged scattering state: the incident (branch, q) wave adds at l != 0.

    current_max is the largest probability current over sites 0 .. L_CHECK + 1.
    """

    branch: str
    q: float
    current_max: float

    def wavefunction(self, l) -> np.ndarray:
        """Spinor(s) of (incident + outgoing + contact) at integer site(s) l."""
        return channel_expansion(l, self.roots, self.scaled_amplitudes, self.contact_spinor,
                                 incident_state(self.branch, self.q, self.params, l))

    @property
    def amplitudes(self) -> np.ndarray:
        """f_j = s_j / z_j, the amplitudes of z_j^l, ordered like roots."""
        return self.scaled_amplitudes / self.roots.z

    def coefficient(self, to_branch: str) -> complex:
        """f(to_branch <- incident) for an open outgoing channel."""
        hits = np.flatnonzero(self.roots.is_open & (np.array(self.roots.branch) == to_branch))
        if not hits.size:
            raise KeyError(f"no open channel labelled {to_branch!r}")
        if hits.size > 1:
            raise KeyError(f"open channel label {to_branch!r} is ambiguous")
        return complex(self.amplitudes[hits[0]])

    @property
    def open_branches(self):
        return self.roots.open_branches


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
    if branch not in roots.open_branches:
        raise ConditioningError(
            f"incident branch {branch} is not an open channel at its own "
            f"energy; open channels found: {roots.open_branches}"
        )
    # the free wave over the certificate window; rows L_CHECK + 1, + 2 are l = 0, 1
    incident = incident_state(branch, q, params, np.arange(-L_CHECK - 1, L_CHECK + 2))
    inc01 = incident[L_CHECK + 1:L_CHECK + 3]
    w, c, rhs = contact_elimination(E, roots, params, inc01)
    b0 = _solve_regular(c[:2, :2], rhs[:2], f"contact matrix S at E = {E}")
    contact = np.array([b0[0], b0[1], 0.0, 0.0])
    scaled = w @ (contact - inc01[0])
    wav, residual = certificate_window(L_CHECK, E, params, roots, scaled, contact, incident)
    return ScatteringSolution(
        params=params, energy=E, roots=roots, scaled_amplitudes=scaled,
        contact_spinor=contact, residual_max=residual, branch=branch, q=q,
        current_max=float(np.abs(probability_current(wav[L_CHECK + 1:], params)).max()),
    )
