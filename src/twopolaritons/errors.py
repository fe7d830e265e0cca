"""Exception types shared by the solver modules."""


class TwoPolaritonError(Exception):
    """Base class for all solver-specific failures."""


class ParameterError(TwoPolaritonError, ValueError):
    """Rejected model parameters (non-positive coupling, non-finite values)."""


class DegenerateBranchError(TwoPolaritonError):
    """Branch eigenvector requested where the closed form is ill-defined."""


class BandEdgeError(TwoPolaritonError):
    """Energy or momentum too close to a band edge for a reliable answer."""


class ChannelCountError(TwoPolaritonError):
    """Channel-root bookkeeping did not produce the expected three roots."""


class DegenerateParametersError(TwoPolaritonError):
    """Channel problem degenerated: the photon pair does not hop (xi = 0, K = pi)."""


class ConditioningError(TwoPolaritonError):
    """A linear solve or root pairing was too ill-conditioned to trust."""


class MatchingError(TwoPolaritonError):
    """The incident branch is not an open channel at its own energy."""


class DegenerateBoundStateError(TwoPolaritonError):
    """Bound-state null space has dimension != 1."""


class OracleMismatchError(TwoPolaritonError):
    """Exact-diagonalization cross-check disagreed with the analytic result."""
