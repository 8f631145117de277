"""Momentum-space wave functions: Gaussian in-states and scattered modes.

The in-state is a normalized product of Gaussians, particle 1 moving right
with central momentum +k and particle 2 moving left with -k:

    phi_in(p1, p2) = N1 N2 exp(i p1 a1 - (p1 - k)^2 / (4 sigma1^2))
                           exp(i p2 a2 - (p2 + k)^2 / (4 sigma2^2))

Scattering leaves the total momentum component untouched and acts on the
relative momentum q; the out-state splits into a transmitted piece
t(q) phi_in and a reflected piece r(q) phi_in composed with the reflection
map q -> -q. Amplitudes are defined for q > 0 and evaluated at |q| here; the
weight a branch carries where its *incident* momentum is non-positive is a
Gaussian tail (of order exp(-(k/sigma_q)^2 / 2)). ``purity.purity_out``
reports it per branch as ``oob_weight`` rather than hiding it, from a 1-D
integral over q that calls no mode.

The scattered modes form their Gaussians from 1-D pieces, by one formula
for any input shape, so each sample depends only on its own (p1, p2) and
a mode gives the same bits on a tensor grid (p1 of shape (n1, 1), p2 of
shape (1, n2)) as on the same nodes passed as full arrays. The in-state is
the product of its two 1-D factors. The reflected in-state is phi_in at
the reflected momenta (p1', p2'), where the relative momentum is inverted;
its envelope couples p1 and p2, so it is one real exp of the envelope
exponent, times the product of the 1-D phases exp(i c1 p1) and
exp(i c2 p2) into which the linear phase a1 p1' + a2 p2' factors. Its
samples differ from phi_in evaluated at (p1', p2') by at most 2 ulp
(4.2e-16 relative with a1 = a2 = 0, on 2-5 % of the nodes of the tested
windows). Calling the state itself keeps the form exp(g1 + g2); see
:class:`GaussianInState`.

A state or a mode is defined by calling it, ``f(p1, p2)``. A scattering
mode's amplitudes depend on the pair momenta only through q = mu2 p1 -
mu1 p2, so the purity ladders sample it in two steps: its amplitudes from
one call on the relative momenta a grid takes
(:meth:`ModeWavefunction.amplitudes_at`), and the mode from those
amplitudes and its Gaussians (:meth:`ModeWavefunction.scattered`), which
is what a call does on the nodes' own q. The geometry of a mode's lobes,
and so its integration window, is decided in ``purity.mode_grid`` and
``purity.joint_grid``.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .amplitudes import AmplitudeModel, AmplitudePair
from .kinematics import MassPartition, PairMomentum, reflect_momenta

__all__ = [
    "IncomingnessWarning",
    "GaussianInState",
    "Mode",
    "ModeWavefunction",
]

ArrayLike = Union[float, np.ndarray]

# k and the widths must lie in this range. At its foot their squares are
# normal doubles. At its top the largest momentum difference an envelope
# squares stays below sqrt(max): the joint grid spans both lobes, under 20 k
# from either center, and the reflected modes map it through the reflection
# map, whose rows have norm at most sqrt(5), so no difference exceeds 64 k.
_SCALES = (float(np.sqrt(np.finfo(float).tiny)), float(np.sqrt(np.finfo(float).max)) / 64.0)
# Bound on |a| and k |a| for each position a. The windows hold |p| below
# 21 k, and a reflected phase coefficient is at most 3 max(|a1|, |a2|), so
# under this bound every coefficient and every phase, which stays below
# 63 k max(|a1|, |a2|), is finite.
_PHASE_BOUND = float(np.finfo(float).max) / 64.0


class IncomingnessWarning(UserWarning):
    """Momentum spread large enough that the state is not cleanly incoming."""


@dataclass(frozen=True)
class GaussianInState:
    """Product Gaussian in-state; see module docstring for the explicit form.

    ``a1``/``a2`` are initial positions and only contribute phases, which
    are local within each mode: a branch's purity, the split total of
    ``purity.purity_out`` and the (p, q) purity are independent of them,
    but the out mode's purity on one joint grid is not, because the
    branches' relative phase moves with them where the lobes overlap.
    States with max(sigma)/k >= 1 are rejected (the packet would straddle
    q = 0), and so are a k or widths outside about 1.5e-154 to 2.1e152,
    where the squares the Gaussians take would underflow the normal doubles
    or overflow, and positions a with |a| or k |a| above about 2.8e306,
    where the phases would overflow; a warning is raised above
    max(sigma)/k = 1/3.
    """

    k: float
    sigma1: float
    sigma2: float
    masses: MassPartition
    a1: float = 0.0
    a2: float = 0.0

    def __post_init__(self) -> None:
        if not self.k > 0.0:
            raise ValueError(f"central momentum k must be positive, got {self.k}")
        if not (self.sigma1 > 0.0 and self.sigma2 > 0.0):
            raise ValueError(
                f"momentum widths must be positive, got ({self.sigma1}, {self.sigma2})"
            )
        lo, hi = _SCALES
        scales = (self.k, self.sigma1, self.sigma2)
        if not all(lo <= v <= hi for v in scales):
            raise ValueError(
                f"k, sigma1 and sigma2 must lie in [{lo:.3g}, {hi:.3g}], where the "
                f"Gaussians' squares are normal doubles, got {scales}"
            )
        pos = (self.a1, self.a2)
        if not all(abs(a) <= _PHASE_BOUND and self.k * abs(a) <= _PHASE_BOUND for a in pos):
            raise ValueError(
                f"|a1|, |a2| and k times each must be at most {_PHASE_BOUND:.3g}, where "
                f"the phases stay finite, got k = {self.k}, (a1, a2) = {pos}"
            )
        ratio = max(self.sigma1, self.sigma2) / self.k
        if ratio >= 1.0:
            raise ValueError(
                f"max(sigma)/k = {ratio:.3g} >= 1: state is not incoming"
            )
        if ratio > 1.0 / 3.0:
            warnings.warn(
                f"max(sigma)/k = {ratio:.3g} > 1/3: amplitude evaluation at |q| "
                "leaves a non-negligible out-of-convention tail",
                IncomingnessWarning,
                stacklevel=3,
            )

    @property
    def sigma_q(self) -> float:
        """Width of the relative-momentum marginal, sqrt(mu2^2 s1^2 + mu1^2 s2^2)."""
        mp = self.masses
        return float(np.hypot(mp.mu2 * self.sigma1, mp.mu1 * self.sigma2))

    def __call__(self, p1: ArrayLike, p2: ArrayLike) -> np.ndarray:
        """phi_in at the given momenta; supports broadcasting of p1 against p2.

        One exp of the summed exponent, where the transmitted mode multiplies
        the exps of the two 1-D factors. The two forms differ in the last
        bits; this one is kept because ``Mode.IN`` and the CLI's in-state
        purity (potential kind "none") sample it, and the factored form
        moves the last bits of their output.
        """
        norm, g1, g2 = _in_exponents(self, PairMomentum(p1, p2))
        return norm * np.exp(g1 + g2)


class Mode(enum.Enum):
    IN = "in"
    REFLECTED_IN = "reflected_in"
    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"
    OUT = "out"


_NEEDS_MODEL = (Mode.TRANSMITTED, Mode.REFLECTED, Mode.OUT)
_REVERSED_INCIDENT = (Mode.REFLECTED, Mode.REFLECTED_IN)


def _in_norm(state: GaussianInState) -> float:
    """phi_in's normalization N1 N2."""
    return (2.0 * np.pi * state.sigma1**2) ** -0.25 * (2.0 * np.pi * state.sigma2**2) ** -0.25


def _in_envelopes(state: GaussianInState, pm: PairMomentum) -> tuple:
    """The envelope exponents (p1 - k)^2 / (4 sigma1^2) and (p2 + k)^2 / (4 sigma2^2)."""
    p1, p2 = pm
    # far down a narrow axis the quotient overflows to +inf, which is its
    # right value: the envelope exp(-inf) is 0
    with np.errstate(over="ignore"):
        d1 = (np.subtract(p1, state.k) ** 2) / (4.0 * state.sigma1**2)
        d2 = (np.add(p2, state.k) ** 2) / (4.0 * state.sigma2**2)
    return d1, d2


def _in_exponents(state: GaussianInState, pm: PairMomentum) -> tuple:
    """phi_in's normalization and the exponents of its p1 and p2 factors."""
    p1, p2 = pm
    d1, d2 = _in_envelopes(state, pm)
    g1 = 1j * np.multiply(p1, state.a1) - d1
    g2 = 1j * np.multiply(p2, state.a2) - d2
    return _in_norm(state), g1, g2


def _eval_in_factored(state: GaussianInState, pm: PairMomentum) -> np.ndarray:
    """phi_in as the product of the exps of its two 1-D factors."""
    norm, g1, g2 = _in_exponents(state, pm)
    return norm * np.exp(g1) * np.exp(g2)


def _eval_reflected_in(state: GaussianInState, pm: PairMomentum) -> np.ndarray:
    """phi_in composed with the reflection map, formed from one real exp.

    The envelope exponent is taken at the reflected momenta (p1', p2') by
    the formula of phi_in, in real arithmetic, so it cannot overflow. The
    phase a1 p1' + a2 p2' = c1 p1 + c2 p2 is linear in the pair momenta
    themselves and factors into the product of two 1-D exponentials.
    """
    p1, p2 = pm
    mp = state.masses
    d1, d2 = _in_envelopes(state, reflect_momenta(pm, mp))
    c1 = (mp.mu1 - mp.mu2) * state.a1 + 2.0 * mp.mu2 * state.a2
    c2 = 2.0 * mp.mu1 * state.a1 + (mp.mu2 - mp.mu1) * state.a2
    phase = np.exp(1j * np.multiply(p1, c1)) * np.exp(1j * np.multiply(p2, c2))
    return _in_norm(state) * np.exp(-d1 - d2) * phase


@dataclass(frozen=True)
class ModeWavefunction:
    """One branch of the scattering process, evaluatable on momentum grids.

    ``amplitudes`` may be omitted for the IN / REFLECTED_IN modes, which do
    not scatter.
    """

    mode: Mode
    in_state: GaussianInState
    amplitudes: Optional[AmplitudeModel] = None

    def __post_init__(self) -> None:
        if self.mode in _NEEDS_MODEL and self.amplitudes is None:
            raise ValueError(f"mode {self.mode.value} needs an amplitude model")

    def __call__(self, p1: ArrayLike, p2: ArrayLike) -> np.ndarray:
        """Evaluate this mode at pair momenta, broadcasting p1 against p2."""
        state = self.in_state
        if self.mode is Mode.IN:
            return state(p1, p2)
        if self.mode is Mode.REFLECTED_IN:
            return _eval_reflected_in(state, PairMomentum(p1, p2))
        mp = state.masses
        t, r = self.amplitudes_at(mp.mu2 * p1 - mp.mu1 * p2)
        return self.scattered(t, r, p1, p2)

    def amplitudes_at(self, q: ArrayLike) -> AmplitudePair:
        """(t, r) at relative momenta q, evaluated at |q|, from one amplitude call.

        |q| is floored at 1e-13 k, so that composite transfer matrices stay
        finite at stray q == 0 nodes, where the state weight is a deep
        Gaussian tail. A phase that overflows where a window reaches past
        the central momentum's finite one gives non-finite amplitudes, which
        ``purity.discretize`` counts and reports.
        """
        q_abs = np.maximum(np.abs(q), 1e-13 * self.in_state.k)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return self.amplitudes.amplitudes(q_abs)

    def scattered(self, t: ArrayLike, r: ArrayLike, p1: ArrayLike, p2: ArrayLike) -> np.ndarray:
        """This scattering mode at (p1, p2), given t and r at those nodes' |q|;
        ValueError for a mode that does not scatter.

        From 256 KiB up numpy forms the products in the Gaussian's own
        buffer (temporary elision), as psi * t; complex products with fused
        multiply-adds do not commute, so an explicit out= would move last
        bits.
        """
        state, pm = self.in_state, PairMomentum(p1, p2)
        if self.mode is Mode.TRANSMITTED:
            return t * _eval_in_factored(state, pm)
        if self.mode is Mode.REFLECTED:
            return r * _eval_reflected_in(state, pm)
        if self.mode is not Mode.OUT:
            raise ValueError(f"mode {self.mode.value} does not scatter")
        return t * _eval_in_factored(state, pm) + r * _eval_reflected_in(state, pm)
