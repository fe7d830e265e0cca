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
d_{l+-} = (d_l +- d_{-l})/2, where d_l is the pair with the TLS on site m
and the photon on m + l; every pair on m and m + l carries e^{iK(m + l/2)}.
The stationary problem is block tridiagonal,

    onsite @ b_l + hp @ b_{l-1} + hm @ b_{l+1} + delta_{l0} V @ b_0 = E b_l,

where hp/hm = (hop_cos +- i hop_sin)/2 and V is the contact block produced
by the TLS saturation (a TLS cannot be excited twice).  Energies are given
in units of the photon-TLS coupling g (g = 1 by default); xi is the photon
hopping between neighbouring cavities and delta the TLS-photon detuning.
"""

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "ModelParams",
    "PARITY",
    "bloch_matrices",
    "bloch_matrix",
    "hop_blocks",
    "contact_interaction",
    "site_residual",
]

SQRT2 = float(np.sqrt(2.0))
_EPS = np.finfo(float).eps
TWO_PI = 2.0 * np.pi

#: Largest |xi|, |delta| and g accepted.  The dressed levels square |xi| and
#: |delta|, and the channel-root certificate multiplies four row scales that
#: grow like g^2 at a closed channel: they overflow from about 1e77 in |xi| or
#: |delta| and 1e44 in g.  Below 1e30 every product stays finite.
SCALE_MAX = 1e30

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
        for name in ("xi", "delta", "g"):
            value = getattr(self, name)
            if abs(value) > SCALE_MAX:
                raise ParameterError(f"|{name}| must not exceed {SCALE_MAX:g}, got {value!r}")
        folded = (self.K + TWO_PI) % (2.0 * TWO_PI) - TWO_PI
        object.__setattr__(self, "K", float(folded))
        object.__setattr__(self, "xi", float(self.xi))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "g", float(self.g))


@dataclass(frozen=True, eq=False)
class BlochMatrices:
    """The blocks of one parameter set, and all that follows from them alone.

    ``onsite + hop_cos*cos(q) + hop_sin*sin(q)`` is the free Bloch matrix at
    relative momentum q.  __post_init__ derives every other field from those
    three, so a record rebuilt from edited blocks (dataclasses.replace) stays
    consistent; bloch_matrices shares one record, so its arrays are read-only.
    hp, hm and contact are the site equation's hp, hm and V; mirror_hop =
    hp PARITY + hm couples b_0 to b_1 and b_-1 = PARITY b_1.  The channel-root
    determinant check reads the rest: hop_stack holds hop_cos and hop_sin
    flattened as rows, so (cos lam, sin lam) @ hop_stack is the hopping part
    of M(lam), and offdiag_norms and hop_norms are the row norms of its scale.
    double_root is the package's one test of sin(K/2) = 0 to rounding, |s| <=
    eps |a| for the hop_sin entry s = -2 xi sin(K/2) and the hop_cos entry
    a = 2 xi cos(K/2) of the mixed slots: there M(q) = onsite + cos(q) hop_cos
    is even in q, the channel determinant has the double root D1 = 0, and
    band_structure takes the band edges in closed form.
    """

    onsite: np.ndarray
    hop_cos: np.ndarray
    hop_sin: np.ndarray
    hp: np.ndarray = dataclasses.field(init=False)
    hm: np.ndarray = dataclasses.field(init=False)
    mirror_hop: np.ndarray = dataclasses.field(init=False)
    contact: np.ndarray = dataclasses.field(init=False)
    hop_stack: np.ndarray = dataclasses.field(init=False)
    offdiag_norms: np.ndarray = dataclasses.field(init=False)
    hop_norms: np.ndarray = dataclasses.field(init=False)
    double_root: bool = dataclasses.field(init=False)

    def __post_init__(self):
        hp = 0.5 * (self.hop_cos + 1j * self.hop_sin)
        hm = 0.5 * (self.hop_cos - 1j * self.hop_sin)
        # V cancels the onsite coupling of d_+ and t at l = 0: one TLS holds one quantum
        contact = np.zeros((4, 4))
        for i, j in ((MIX_SYM, TLS_PAIR), (TLS_PAIR, MIX_SYM)):
            contact[i, j] = -self.onsite[i, j]
        derived = dict(
            hp=hp, hm=hm, mirror_hop=hp @ PARITY + hm, contact=contact,
            hop_stack=np.array([self.hop_cos.ravel(), self.hop_sin.ravel()], dtype=complex),
            offdiag_norms=np.linalg.norm(self.onsite - np.diag(self.onsite.diagonal()), axis=1),
            hop_norms=np.linalg.norm([self.hop_cos, self.hop_sin], axis=2),
        )
        for name, array in derived.items():
            object.__setattr__(self, name, array)
        for array in (self.onsite, self.hop_cos, self.hop_sin, *derived.values()):
            array.flags.writeable = False
        object.__setattr__(self, "double_root", bool(
            abs(self.hop_sin[MIX_SYM, MIX_ASYM]) <= _EPS * abs(self.hop_cos[MIX_SYM, MIX_SYM])))


@functools.lru_cache(maxsize=8)
def bloch_matrices(params: ModelParams) -> BlochMatrices:
    """The read-only BlochMatrices of params, built once; the 8 most recent are kept.

    Every layer reads the blocks and their derived data here; ring_sector
    memoizes per (params, N) too (bloch_matrices.cache_clear() empties this).
    """
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
    """Hopping blocks (hp, hm) of the given parameters, read-only."""
    m = bloch_matrices(params)
    return m.hp, m.hm


def contact_interaction(params: ModelParams) -> np.ndarray:
    """Contact block V of the given parameters, acting at l = 0 only; read-only."""
    return bloch_matrices(params).contact


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
    mats = bloch_matrices(params)
    mid = field[1:-1]
    defect = (
        mid @ mats.onsite.T
        + field[:-2] @ mats.hp.T
        + field[2:] @ mats.hm.T
        - energy * mid
    )
    if lo <= 0 <= hi:
        defect[0 - lo] += mats.contact @ field[0 - lo + 1]
    return np.linalg.norm(defect, axis=1)
