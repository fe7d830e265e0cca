"""Exception types shared by the solver modules.

Callers tell apart only what they handle differently: bad input
(ParameterError), a point the channel problem cannot describe
(DegenerateParametersError, skipped by the sweeps), a computation too
ill-conditioned to trust (ConditioningError) and an oracle disagreement.
The message of each names the specific reason.
"""


class TwoPolaritonError(Exception):
    """Base class for all solver-specific failures."""


class ParameterError(TwoPolaritonError, ValueError):
    """Rejected model parameters (non-positive coupling, non-finite values)."""


class DegenerateParametersError(TwoPolaritonError):
    """The channel problem degenerates at these parameters and energy.

    The photon pair does not hop (xi = 0, K = pi), the energy hits twice
    the detuning, or the open channels do not pair up into three.
    """


class ConditioningError(TwoPolaritonError):
    """A solve, eigenvector or root was too ill-conditioned to trust.

    Covers singular linear solves, collapsed branch splittings, vanishing
    group velocities at a band edge, an incident branch that is not open,
    poles of the contact matrix and degenerate bound-state null spaces.
    """


class OracleMismatchError(TwoPolaritonError):
    """Exact-diagonalization cross-check disagreed with the analytic result."""
