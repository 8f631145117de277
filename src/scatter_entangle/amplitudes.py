"""Transmission/reflection amplitudes t(q), r(q) for 1D potentials.

Every potential is a chain of point scatterers, stored as (|alpha|, x) pairs
sorted by position: none for the impenetrable core, one at the origin for
the single Dirac delta, two at -a and +a for the symmetric double delta, any
number for a composite. Conventions:

* q is the incident relative momentum and must be positive. The models are
  even under q -> -q; callers that need amplitudes on the outgoing branch
  evaluate at |q| (see the wavefunction module).
* A point scatterer of strength alpha couples through b = mu_red * alpha
  (hbar = 1); the single delta has r = i/(x - i), t = 1 + r with x = q/b.
* The hard core (t = 0, r = -1) and the single delta keep these closed
  forms. A one-link transfer-matrix chain gives the same delta amplitudes
  but costs several times more per momentum, and delta purity runs spend a
  noticeable share of their time evaluating amplitudes.
* Double-delta and composite amplitudes come from the product of the
  scatterers' transfer matrices, which keeps |t|^2 + |r|^2 = 1 exact. The
  shortcut "r = t - 1" holds only for a single scatterer at the origin and
  is not used for chains. Double-delta resonant transmission happens at the
  roots of tan(2*a*q) = -q/b.
* Attractive and repulsive deltas scatter identically in modulus and the
  adopted phase convention, so strengths are stored as |alpha|.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .kinematics import MassPartition

__all__ = [
    "PotentialKind",
    "AmplitudePair",
    "AmplitudeModel",
    "hardcore_amplitudes",
    "delta_amplitudes",
    "double_delta_amplitudes",
    "find_resonances",
    "unitarity_residual",
]

ComplexLike = Union[complex, np.ndarray]


class PotentialKind(enum.Enum):
    HARD_CORE = "hard_core"
    DIRAC_DELTA = "delta"
    DOUBLE_DIRAC_DELTA = "double_delta"
    COMPOSITE = "composite"


class AmplitudePair(NamedTuple):
    """Transmission and reflection amplitudes at common momenta."""

    t: ComplexLike
    r: ComplexLike


def _as_positive_q(q) -> np.ndarray:
    arr = np.asarray(q, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError("relative momentum q must be positive (incident convention)")
    return arr


def _pair_like(q, t: np.ndarray, r: np.ndarray) -> AmplitudePair:
    # scalar in, scalar out
    if np.ndim(q) == 0:
        return AmplitudePair(complex(t), complex(r))
    return AmplitudePair(t, r)


def hardcore_amplitudes(q) -> AmplitudePair:
    """Impenetrable core: t = 0, r = -1 at every momentum."""
    arr = _as_positive_q(q)
    t = np.zeros(arr.shape, dtype=complex)
    r = np.full(arr.shape, -1.0 + 0.0j)
    return _pair_like(q, t, r)


def delta_amplitudes(q, alpha: float, mp: MassPartition) -> AmplitudePair:
    """Single delta of strength alpha: r = i/(x - i), t = 1 + r, x = q/(mu_red*alpha)."""
    arr = _as_positive_q(q)
    if not alpha > 0.0:
        raise ValueError(f"delta strength must be positive, got {alpha}")
    x = arr / (mp.mu_red * alpha)
    r = 1j / (x - 1j)
    return _pair_like(q, 1.0 + r, r)


def _chain_amplitudes(
    q: np.ndarray,
    scatterers: Sequence[Tuple[float, float]],
    mp: MassPartition,
    phase: Callable[[float], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """(t, r) of point scatterers listed left to right.

    A delta of strength alpha >= 0 at x has the transfer matrix

        N = [[1 + g,      g*e],
             [-g*conj(e), 1 - g]],   g = i*b/q, b = mu_red*alpha, e = exp(2i*q*x),

    so det N = 1 and alpha = 0 gives the identity; the sign of g makes a
    single scatterer at the origin reproduce :func:`delta_amplitudes`. The
    chain's matrix M is the product of the links' matrices in propagation
    order (the rightmost scatterer acts last), and det M = 1 makes
    t = 1/M22 and r = -M21/M22. Only M's second row is needed, so it is
    built from the right: row2(M) = (0, 1) N_last ... N_first, carried as
    (n, m22) with n = -M21. The rightmost link maps (0, 1) to
    (g*conj(e), 1 - g); each link to its left then does

        n   <- n   + g*(m22*conj(e) + n),
        m22 <- m22 - g*(n*e + m22),

    with n and m22 updated in place. Complex products with fused
    multiply-adds do not commute bit for bit, so each product keeps the
    operand order in which numpy evaluates the plain update of (M21, M22)
    written as two assignments (the 0-d branch below): the amplitudes are
    the same to the last bit. ``phase(x)`` returns a new array exp(2i*q*x)
    of q's shape, which is used as scratch. A 0-d q runs that plain update
    on numpy scalars, which round differently from array loops, so scalar
    amplitudes (among them the CLI's T and R at k) keep their values.
    """
    if q.ndim == 0:
        m21, m22 = 0.0, 1.0
        for alpha, x in reversed(scatterers):
            g = 1j * ((mp.mu_red * alpha) / q)
            e = phase(x)
            m21, m22 = m21 + g * (m21 - m22 * np.conj(e)), m22 + g * (m21 * e - m22)
        t = 1.0 / m22
        return t, -m21 * t
    g = n = m22 = None
    prev_alpha = None
    for alpha, x in reversed(scatterers):
        if alpha != prev_alpha:  # the double delta's links share one g
            g, prev_alpha = 1j * ((mp.mu_red * alpha) / q), alpha
        e = phase(x)
        if n is None:
            n = np.multiply(g, np.conjugate(e, out=e), out=e)
            m22 = 1.0 - g
            continue
        # kept as the plain product's expression: on large arrays numpy
        # reuses the conj temporary and multiplies as conj(e) * m22, and
        # complex products with fused multiply-adds are not commutative
        a = m22 * np.conj(e)
        a += n
        s = np.multiply(n, e, out=e)
        s += m22
        m22 -= np.multiply(g, s, out=s)
        n += np.multiply(g, a, out=a)
    t = np.divide(1.0, m22, out=m22)
    return t, np.multiply(n, t, out=n)


def double_delta_amplitudes(
    q, alpha: float, half_separation: float, mp: MassPartition
) -> AmplitudePair:
    """Two deltas of strength alpha at -a and +a, composed via transfer matrices."""
    return AmplitudeModel.double_dirac_delta(alpha, half_separation, mp).amplitudes(q)


def unitarity_residual(pair: AmplitudePair) -> ComplexLike:
    """| |t|^2 + |r|^2 - 1 |, elementwise."""
    return np.abs(np.abs(pair.t) ** 2 + np.abs(pair.r) ** 2 - 1.0)


def _nonzero_strength(alpha: float) -> float:
    if not abs(alpha) > 0.0:
        raise ValueError("delta potentials need a nonzero strength")
    return abs(alpha)


@dataclass(frozen=True)
class AmplitudeModel:
    """A potential plus the masses it scatters, exposing amplitudes(q).

    ``scatterers`` is the tuple of (|alpha|, x) pairs of the point
    scatterers, sorted by position; it is empty for the hard core, one at
    x = 0 for the delta and two equal strengths at -a and +a (a > 0) for
    the double delta. The classmethods also check the strengths.
    """

    kind: PotentialKind
    masses: MassPartition
    scatterers: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        norm = tuple(
            sorted(((abs(s), float(x)) for s, x in self.scatterers), key=lambda sx: sx[1])
        )
        if (self.kind is PotentialKind.HARD_CORE) == bool(norm):
            raise ValueError(
                "the hard core takes no scatterers; every other kind needs at least one"
            )
        # the delta's closed form and find_resonances assume these layouts
        if self.kind is PotentialKind.DIRAC_DELTA and [x for _, x in norm] != [0.0]:
            raise ValueError(f"a single delta is one scatterer at x = 0, got {norm}")
        if self.kind is PotentialKind.DOUBLE_DIRAC_DELTA and not (
            len(norm) == 2 and norm[0][0] == norm[1][0] and -norm[0][1] == norm[1][1] > 0.0
        ):
            raise ValueError(f"a double delta is two equal strengths at -a and +a, got {norm}")
        object.__setattr__(self, "scatterers", norm)

    @classmethod
    def hard_core(cls, masses: MassPartition) -> "AmplitudeModel":
        return cls(kind=PotentialKind.HARD_CORE, masses=masses)

    @classmethod
    def dirac_delta(cls, alpha: float, masses: MassPartition) -> "AmplitudeModel":
        return cls(
            kind=PotentialKind.DIRAC_DELTA,
            masses=masses,
            scatterers=((_nonzero_strength(alpha), 0.0),),
        )

    @classmethod
    def double_dirac_delta(
        cls, alpha: float, half_separation: float, masses: MassPartition
    ) -> "AmplitudeModel":
        s = _nonzero_strength(alpha)
        if not half_separation > 0.0:
            raise ValueError("double delta needs a positive half separation")
        return cls(
            kind=PotentialKind.DOUBLE_DIRAC_DELTA,
            masses=masses,
            scatterers=((s, -half_separation), (s, half_separation)),
        )

    @classmethod
    def composite(
        cls, scatterers: Sequence[Tuple[float, float]], masses: MassPartition
    ) -> "AmplitudeModel":
        return cls(kind=PotentialKind.COMPOSITE, masses=masses, scatterers=tuple(scatterers))

    @property
    def alpha(self) -> float:
        """|alpha| of the delta, or of each delta of the double delta; 0 otherwise."""
        if self.kind in (PotentialKind.DIRAC_DELTA, PotentialKind.DOUBLE_DIRAC_DELTA):
            return self.scatterers[0][0]
        return 0.0

    @property
    def strength_scale(self) -> float:
        """b = mu_red * alpha, the momentum scale of a point scatterer."""
        return self.masses.mu_red * self.alpha

    def amplitudes(
        self, q, phase: Optional[Callable[[float], np.ndarray]] = None
    ) -> AmplitudePair:
        """(t(q), r(q)) for incident relative momenta q > 0.

        ``phase(x)``, if given, must return a new array exp(2i*q*x) of q's
        shape, which the chain overwrites; a caller that can form these
        scatterer phases more cheaply than a complex exp per point (a tensor
        grid) passes it. Only chains use it.
        """
        if self.kind is PotentialKind.HARD_CORE:
            return hardcore_amplitudes(q)
        if self.kind is PotentialKind.DIRAC_DELTA:
            return delta_amplitudes(q, self.alpha, self.masses)
        arr = _as_positive_q(q)
        if phase is None:

            def phase(x: float) -> np.ndarray:
                return np.exp(2j * arr * x)

        t, r = _chain_amplitudes(arr, self.scatterers, self.masses, phase)
        return _pair_like(q, t, r)


def find_resonances(
    model: AmplitudeModel, q_range: Tuple[float, float], count: int = 8
) -> np.ndarray:
    """Momenta of perfect transmission for a double delta, ascending.

    Roots of tan(2*a*q) = -q/b inside ``q_range``, located by a sign-change
    scan of h(q) = sin(2*a*q) + (q/b)*cos(2*a*q) and polished with brentq.
    Each returned root satisfies | |t(q)|^2 - 1 | <= 1e-10. At most ``count``
    roots are returned.
    """
    if model.kind is not PotentialKind.DOUBLE_DIRAC_DELTA:
        raise ValueError("resonance search applies to the double delta only")
    lo, hi = q_range
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    # lazy: only this needs scipy.optimize, most of the package's import time
    from scipy.optimize import brentq

    a = model.scatterers[1][1]  # the layout is (-a, +a), checked by the model
    b = model.strength_scale

    def h(q):
        return np.sin(2.0 * a * q) + (q / b) * np.cos(2.0 * a * q)

    # at least ~16 samples per oscillation period pi/(2a)
    n_scan = max(1024, int(np.ceil((hi - lo) * (2.0 * a / np.pi) * 16)) + 1)
    qs = np.linspace(lo, hi, n_scan)
    hs = h(qs)

    roots = []
    for i in np.nonzero(np.sign(hs[:-1]) * np.sign(hs[1:]) < 0)[0]:
        root = brentq(h, qs[i], qs[i + 1], xtol=1e-15 * hi, rtol=4 * np.finfo(float).eps)
        t, _ = model.amplitudes(root)
        if abs(abs(t) ** 2 - 1.0) <= 1e-10:
            roots.append(root)
        if len(roots) >= count:
            break
    return np.asarray(roots, dtype=float)
