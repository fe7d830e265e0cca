"""Two interacting polaritons on an infinite coupled-cavity chain.

Analytic spinor solver for the pair problem (bands, channel structure,
scattering coefficients, gap bound states) plus an independent finite-
ring exact-diagonalization oracle and a validation suite tying the two
together.
"""

from .bands import (
    Band,
    BandStructure,
    Gap,
    band_structure,
    branch_energy,
    branch_vector,
    incident_state,
)
from .bound_states import (
    BoundState,
    build_bound_wavefunction,
    find_bound_states,
    rayleigh_quotient,
)
from .channels import ChannelRoot, find_channel_roots
from .errors import (
    ChannelCountError,
    DegenerateBoundStateError,
    DegenerateParametersError,
    MatchingError,
    OracleMismatchError,
    ParameterError,
    TwoPolaritonError,
)
from .model import (
    PARITY,
    BlochMatrices,
    ModelParams,
    bloch_matrices,
    bloch_matrix,
    contact_interaction,
    hop_blocks,
    single_polariton_energy,
    single_polariton_mode,
    site_residual,
)
from .ring_ed import (
    EdgeCheckReport,
    MomentumSector,
    OracleComparison,
    TwoExcitationBasis,
    band_edge_check,
    build_hamiltonian,
    compare_bound_state,
    jc_pair_levels,
    momentum_blocks,
    ring_embedding,
    translation_operator,
)
from .scattering import (
    ScatteringSolution,
    probability_current,
    scattering_wavefunction,
    solve_scattering,
)
from .sweeps import BoundSweepPoint, ScatterSweepPoint, bound_sweep, scatter_sweep
from .validation import CHECK_NAMES, CheckResult, run_checks

__all__ = [
    "Band",
    "BandStructure",
    "BlochMatrices",
    "BoundState",
    "BoundSweepPoint",
    "CHECK_NAMES",
    "ChannelCountError",
    "ChannelRoot",
    "CheckResult",
    "DegenerateBoundStateError",
    "DegenerateParametersError",
    "EdgeCheckReport",
    "Gap",
    "MatchingError",
    "ModelParams",
    "MomentumSector",
    "OracleComparison",
    "OracleMismatchError",
    "PARITY",
    "ParameterError",
    "ScatterSweepPoint",
    "ScatteringSolution",
    "TwoExcitationBasis",
    "TwoPolaritonError",
    "band_edge_check",
    "band_structure",
    "bloch_matrices",
    "bloch_matrix",
    "bound_sweep",
    "branch_energy",
    "branch_vector",
    "build_bound_wavefunction",
    "build_hamiltonian",
    "compare_bound_state",
    "contact_interaction",
    "find_bound_states",
    "find_channel_roots",
    "hop_blocks",
    "incident_state",
    "jc_pair_levels",
    "momentum_blocks",
    "probability_current",
    "rayleigh_quotient",
    "ring_embedding",
    "run_checks",
    "scatter_sweep",
    "scattering_wavefunction",
    "single_polariton_energy",
    "single_polariton_mode",
    "site_residual",
    "solve_scattering",
    "translation_operator",
]
__version__ = "0.1.0"
