"""Two interacting polaritons on an infinite coupled-cavity chain.

Analytic spinor solver for the pair problem (bands, channel structure,
scattering coefficients, gap bound states) plus an independent finite-
ring exact-diagonalization oracle and a validation suite tying the two
together.  The top level exports what README documents; every other
name is imported from its own submodule.
"""

from .bands import band_structure
from .bound_states import BoundState, find_bound_states
from .errors import ParameterError, TwoPolaritonError
from .model import ModelParams
from .ring_ed import compare_bound_state
from .scattering import solve_scattering

__all__ = [
    "BoundState",
    "ModelParams",
    "ParameterError",
    "TwoPolaritonError",
    "band_structure",
    "compare_bound_state",
    "find_bound_states",
    "solve_scattering",
]
__version__ = "0.1.0"
