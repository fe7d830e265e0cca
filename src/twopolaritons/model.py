"""Core model data: parameters, relative-motion blocks, and the site residual.

Two excitations in an infinite chain of coupled single-mode cavities, each
cavity hosting one two-level system (TLS), conserve total momentum K.  After
the centre of mass is split off, the relative motion at integer separation l
lives in a four-component amplitude vector ("spinor"):

    index 0   photon pair              p_l
    index 1   symmetric photon/TLS     d_{l+}
    index 2   antisymmetric photon/TLS d_{l-}
    index 3   TLS pair                 t_l

with the exchange conditions p_l = p_{-l}, t_l = t_{-l}, t_0 = 0 and
d_{l+-} = (d_l +- d_{-l})/2.  The stationary problem is block tridiagonal,

    onsite @ b_l + hp @ b_{l-1} + hm @ b_{l+1} + delta_{l0} V @ b_0 = E b_l,

where hp/hm = (hop_cos +- i hop_sin)/2 and V is the contact block produced
by the TLS saturation (a TLS cannot be excited twice).  Energies are given
in units of the photon-TLS coupling g (g = 1 by default); xi is the photon
hopping between neighbouring cavities and delta the TLS-photon detuning.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "BlochMatrices",
    "PARITY",
    "PHOTON_PAIR",
    "MIX_SYM",
    "MIX_ASYM",
    "TLS_PAIR",
    "bloch_matrices",
    "bloch_matrix",
    "hop_blocks",
    "contact_interaction",
    "site_residual",
    "single_polariton_energy",
]

SQRT2 = float(np.sqrt(2.0))
TWO_PI = 2.0 * np.pi

# Spinor component order, fixed project-wide.
PHOTON_PAIR, MIX_SYM, MIX_ASYM, TLS_PAIR = 0, 1, 2, 3

#: Exchange parity: swapping the two excitations (l -> -l) flips the sign of
#: the antisymmetric mixed component only.
PARITY = np.diag([1.0, 1.0, -1.0, 1.0])


@dataclass(frozen=True)
class ModelParams:
    """Model parameters in units of the coupling g.

    Parameters
    ----------
    xi : float
        Photon hopping between neighbouring cavities.
    delta : float
        TLS-photon detuning.
    K : float
        Total pair momentum.  Enters only through K/2, so it is canonical
        on [-2*pi, 2*pi) and is folded into that window on construction.
    g : float
        Photon-TLS coupling, must be positive.  Keeping it explicit makes
        the unit convention visible in formulas instead of implicit.
    """

    xi: float
    delta: float = 0.0
    K: float = 0.0
    g: float = 1.0

    def __post_init__(self):
        for name in ("xi", "delta", "K", "g"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.g <= 0.0:
            raise ParameterError(f"coupling g must be positive, got {self.g!r}")
        folded = (self.K + TWO_PI) % (2.0 * TWO_PI) - TWO_PI
        object.__setattr__(self, "K", float(folded))
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "g", float(self.g))


@dataclass(frozen=True)
class BlochMatrices:
    """Blocks of the relative-motion problem at fixed K.

    ``onsite + hop_cos*cos(q) + hop_sin*sin(q)`` is the free Bloch matrix at
    relative momentum q; the hopping blocks of the site equation are
    ``(hop_cos +- 1j*hop_sin)/2``.
    """

    onsite: np.ndarray
    hop_cos: np.ndarray
    hop_sin: np.ndarray


def bloch_matrices(params: ModelParams) -> BlochMatrices:
    """Build the three 4x4 blocks for the given parameters."""
    g, xi, delta, k = params.g, params.xi, params.delta, params.K
    sg = SQRT2 * g
    onsite = np.array(
        [
            [0.0, sg, 0.0, 0.0],
            [sg, delta, 0.0, sg],
            [0.0, 0.0, delta, 0.0],
            [0.0, sg, 0.0, 2.0 * delta],
        ]
    )
    hop_cos = 2.0 * xi * np.cos(0.5 * k) * np.diag([2.0, 1.0, 1.0, 0.0])
    hop_sin = np.zeros((4, 4))
    s = -2.0 * xi * np.sin(0.5 * k)
    hop_sin[MIX_SYM, MIX_ASYM] = s
    hop_sin[MIX_ASYM, MIX_SYM] = s
    return BlochMatrices(onsite=onsite, hop_cos=hop_cos, hop_sin=hop_sin)


def bloch_matrix(params: ModelParams, q) -> np.ndarray:
    """Free Bloch matrix at relative momentum q (q may be complex)."""
    m = bloch_matrices(params)
    return m.onsite + m.hop_cos * np.cos(q) + m.hop_sin * np.sin(q)


def hop_blocks(params: ModelParams):
    """Hopping blocks (hp, hm) multiplying b_{l-1} and b_{l+1}."""
    m = bloch_matrices(params)
    hp = 0.5 * (m.hop_cos + 1j * m.hop_sin)
    hm = 0.5 * (m.hop_cos - 1j * m.hop_sin)
    return hp, hm


def contact_interaction(params: ModelParams) -> np.ndarray:
    """Contact block acting at l = 0 only.

    Couples the symmetric mixed and TLS-pair components; together with the
    t_0 = 0 condition it encodes that a single TLS saturates at one quantum.
    """
    v = np.zeros((4, 4))
    v[MIX_SYM, TLS_PAIR] = -SQRT2 * params.g
    v[TLS_PAIR, MIX_SYM] = -SQRT2 * params.g
    return v


def site_residual(field, energy: float, l_range, params: ModelParams) -> np.ndarray:
    """Norm of the site-equation defect at each l in the inclusive range.

    This is the ground-truth check used by every solver in the package: a
    candidate wavefunction is accepted only if these norms stay below the
    advertised tolerance.  ``field`` holds the 4-component spinors at sites
    lo - 1 .. hi + 1 in order: one extra site beyond each end of
    ``l_range`` = (lo, hi).
    """
    lo, hi = int(l_range[0]), int(l_range[1])
    if hi < lo:
        raise ValueError(f"empty site range {l_range!r}")
    field = np.asarray(field, dtype=complex)
    if field.shape != (hi - lo + 3, 4):
        raise ValueError(
            f"sites {lo - 1}..{hi + 1} need {hi - lo + 3} spinors of 4 "
            f"components, got shape {field.shape}"
        )
    hp, hm = hop_blocks(params)
    mid = field[1:-1]
    defect = (
        mid @ bloch_matrices(params).onsite.T
        + field[:-2] @ hp.T
        + field[2:] @ hm.T
        - energy * mid
    )
    if lo <= 0 <= hi:
        defect[0 - lo] += contact_interaction(params) @ field[0 - lo + 1]
    return np.linalg.norm(defect, axis=1)


def single_polariton_energy(kind: str, k, params: ModelParams):
    """Dispersion of the upper ('A') or lower ('B') one-excitation branch."""
    if kind not in ("A", "B"):
        raise ValueError(f"branch kind must be 'A' or 'B', got {kind!r}")
    sign = 1.0 if kind == "A" else -1.0
    ph = 2.0 * params.xi * np.cos(k)
    return 0.5 * (ph + params.delta + sign * np.sqrt((ph - params.delta) ** 2 + 4.0 * params.g**2))

