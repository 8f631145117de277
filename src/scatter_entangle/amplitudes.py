"""Transmission/reflection amplitudes t(q), r(q) for 1D potentials.

Every potential is a chain of point scatterers, stored as (|alpha|, x) pairs
sorted by position, and is nothing else: none for the impenetrable core, one
at the origin for the single Dirac delta, two equal strengths at -a and +a
for the symmetric double delta, any other layout for a composite. The kind
is read off the layout, so the named potentials are shorthand for their
scatterer lists. Conventions:

* q is the incident relative momentum and must be positive. The models are
  even under q -> -q; callers that need amplitudes on the outgoing branch
  evaluate at |q| (see the wavefunction module). A refinement level of the
  purity ladders calls :meth:`AmplitudeModel.amplitudes` once, on the 1-D
  lattice of the relative momenta its grid takes (see the purity module),
  so a call sees a plain array of q, of order 10^4 of them.
* A point scatterer of strength alpha couples through b = mu_red * alpha
  (hbar = 1); the single delta has r = i/(x - i), t = 1 + r with x = q/b.
* The hard core (t = 0, r = -1) and the single delta keep these closed
  forms, whatever constructor built them. A one-link transfer-matrix chain
  gives the same delta amplitudes to roundoff but costs several times more
  per momentum, and moves the last bits of most of them.
* Double-delta and composite amplitudes come from the product of the
  scatterers' transfer matrices, which keeps |t|^2 + |r|^2 = 1 exact. The
  shortcut "r = t - 1" holds only for a single scatterer at the origin and
  is not used for chains. Double-delta resonant transmission happens at the
  roots of tan(2*a*q) = -q/b. :func:`find_resonances` finds perfect
  transmission of any chain from :meth:`AmplitudeModel.amplitudes` alone,
  with no formula of its own.
* Attractive and repulsive deltas scatter identically in modulus and the
  adopted phase convention, so strengths are stored as |alpha|.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple, Union

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
    q: np.ndarray, scatterers: Sequence[Tuple[float, float]], mp: MassPartition
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
    built from the right: row2(M) = (0, 1) N_last ... N_first.
    """
    m21, m22 = 0.0, 1.0
    for alpha, x in reversed(scatterers):
        g = 1j * ((mp.mu_red * alpha) / q)
        e = np.exp(2j * q * x)
        m21, m22 = m21 + g * (m21 - m22 * np.conj(e)), m22 + g * (m21 * e - m22)
    t = 1.0 / m22
    return t, -m21 * t


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
    """A chain of point scatterers plus the masses it scatters, exposing amplitudes(q).

    ``scatterers`` is the tuple of (|alpha|, x) pairs of the point
    scatterers, sorted by position; the model is this layout and nothing
    else, so two models with equal scatterers and masses are equal and give
    the same amplitudes to the last bit. Its :attr:`kind` is read off the
    layout and picks the evaluation. The classmethods build the paper's
    potentials and check their arguments; direct construction checks none.
    """

    masses: MassPartition
    scatterers: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        norm = sorted(((abs(s), float(x)) for s, x in self.scatterers), key=lambda sx: sx[1])
        object.__setattr__(self, "scatterers", tuple(norm))

    @classmethod
    def hard_core(cls, masses: MassPartition) -> "AmplitudeModel":
        return cls(masses)

    @classmethod
    def dirac_delta(cls, alpha: float, masses: MassPartition) -> "AmplitudeModel":
        return cls(masses, ((_nonzero_strength(alpha), 0.0),))

    @classmethod
    def double_dirac_delta(
        cls, alpha: float, half_separation: float, masses: MassPartition
    ) -> "AmplitudeModel":
        s = _nonzero_strength(alpha)
        if not half_separation > 0.0:
            raise ValueError("double delta needs a positive half separation")
        return cls(masses, ((s, -half_separation), (s, half_separation)))

    @classmethod
    def composite(
        cls, scatterers: Sequence[Tuple[float, float]], masses: MassPartition
    ) -> "AmplitudeModel":
        if not scatterers:
            raise ValueError("a composite chain needs at least one scatterer")
        return cls(masses, tuple(scatterers))

    @property
    def kind(self) -> PotentialKind:
        """The potential this layout is: no scatterers is the hard core, one
        positive strength at x = 0 the delta, two equal positive strengths at
        -a and +a (a > 0) the double delta, and anything else a composite."""
        s = self.scatterers
        if not s:
            return PotentialKind.HARD_CORE
        if len(s) == 1 and s[0][0] > 0.0 and s[0][1] == 0.0:
            return PotentialKind.DIRAC_DELTA
        if len(s) == 2 and s[0][0] == s[1][0] > 0.0 and -s[0][1] == s[1][1] > 0.0:
            return PotentialKind.DOUBLE_DIRAC_DELTA
        return PotentialKind.COMPOSITE

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

    def amplitudes(self, q) -> AmplitudePair:
        """(t(q), r(q)) for incident relative momenta q > 0."""
        if self.kind is PotentialKind.HARD_CORE:
            return hardcore_amplitudes(q)
        if self.kind is PotentialKind.DIRAC_DELTA:
            return delta_amplitudes(q, self.alpha, self.masses)
        t, r = _chain_amplitudes(_as_positive_q(q), self.scatterers, self.masses)
        return _pair_like(q, t, r)


def find_resonances(
    model: AmplitudeModel, q_range: Tuple[float, float], count: int = 8
) -> np.ndarray:
    """Momenta of perfect transmission inside ``q_range``, ascending.

    For a chain symmetric about the origin r/t = -M21 is purely imaginary,
    so f(q) = Im(r conj(t)) = |t|^2 Im(r/t) changes sign exactly where
    |t| = 1; for the double delta f = 2 (b/q)^2 |t|^2 h(q) with
    h = sin(2aq) + (q/b) cos(2aq), whose roots solve tan(2aq) = -q/b. The
    sign changes of f are bracketed on a scan with at least 16 samples per
    period pi/L of the chain's span L, every bracket is bisected at once
    until it is two adjacent doubles, and the endpoint with the smaller |f|
    is the root. A root is kept only if | |t(q)|^2 - 1 | <= 1e-10, which
    rejects an asymmetric chain's crossings. The hard core (t = 0) and the
    single delta (f > 0) give an empty array. At most ``count`` roots are
    returned.
    """
    lo, hi = q_range
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")

    def f(q):
        t, r = model.amplitudes(q)
        return (r * np.conj(t)).imag

    span = model.scatterers[-1][1] - model.scatterers[0][1] if model.scatterers else 0.0
    n_scan = max(1024, int(np.ceil((hi - lo) * (span / np.pi) * 16)) + 1)
    qs = np.linspace(lo, hi, n_scan)
    fs = f(qs)
    i = np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]
    ql, qr, fl, fr = qs[i], qs[i + 1], fs[i], fs[i + 1]
    while True:
        qm = 0.5 * (ql + qr)
        open_ = (ql < qm) & (qm < qr)
        if not open_.any():
            break
        fm = f(qm)
        raise_lo = open_ & (np.sign(fm) == np.sign(fl))
        lower_hi = open_ & ~raise_lo
        ql, fl = np.where(raise_lo, qm, ql), np.where(raise_lo, fm, fl)
        qr, fr = np.where(lower_hi, qm, qr), np.where(lower_hi, fm, fr)
    roots = np.where(np.abs(fr) < np.abs(fl), qr, ql)
    t, _ = model.amplitudes(roots)
    return roots[np.abs(np.abs(t) ** 2 - 1.0) <= 1e-10][:count]
