"""Momentum-space wave functions: Gaussian in-states and scattered modes.

The in-state is a normalized product of Gaussians, particle 1 moving right
with central momentum +k and particle 2 moving left with -k:

    phi_in(p1, p2) = N1 N2 exp(i p1 a1 - (p1 - k)^2 / (4 sigma1^2))
                           exp(i p2 a2 - (p2 + k)^2 / (4 sigma2^2))

Scattering leaves the total momentum component untouched and acts on the
relative momentum q; the out-state splits into a transmitted piece
t(q) phi_in and a reflected piece r(q) phi_in composed with the reflection
map q -> -q. Amplitudes are defined for q > 0 and evaluated at |q| here; the
weight a mode carries where its *incident* momentum is non-positive is a
Gaussian tail (of order exp(-(k/sigma_q)^2 / 2)) and is surfaced as an
out-of-convention diagnostic rather than hidden.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .amplitudes import AmplitudeModel, AmplitudePair
from .kinematics import (
    JacobiMomentum,
    MassPartition,
    PairMomentum,
    jacobi_to_pair,
    pair_to_jacobi,
    reflect_momenta,
)

__all__ = [
    "IncomingnessWarning",
    "GaussianInState",
    "Mode",
    "ModeWavefunction",
    "eval_in",
    "eval_reflected_in",
    "eval_mode",
    "eval_amplitudes",
    "eval_in_jacobi",
    "mode_center",
    "mode_covariance",
]

ArrayLike = Union[float, np.ndarray]


class IncomingnessWarning(UserWarning):
    """Momentum spread large enough that the state is not cleanly incoming."""


@dataclass(frozen=True)
class GaussianInState:
    """Product Gaussian in-state; see module docstring for the explicit form.

    ``a1``/``a2`` are initial positions and only contribute phases; every
    purity computed from this state is independent of them. States with
    max(sigma)/k >= 1 are rejected (the packet would straddle q = 0); a
    warning is raised above max(sigma)/k = 1/3.
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
        return eval_in(self, PairMomentum(p1, p2))


class Mode(enum.Enum):
    IN = "in"
    REFLECTED_IN = "reflected_in"
    TRANSMITTED = "transmitted"
    REFLECTED = "reflected"
    OUT = "out"


_NEEDS_MODEL = (Mode.TRANSMITTED, Mode.REFLECTED, Mode.OUT)
_REVERSED_INCIDENT = (Mode.REFLECTED, Mode.REFLECTED_IN)


def _is_tensor_grid(x1: ArrayLike, x2: ArrayLike) -> bool:
    """True when x1 and x2 broadcast as an outer product, e.g. shapes (n1, 1), (1, n2)."""
    return np.size(x1) + np.size(x2) < np.broadcast(x1, x2).size


def _in_exponents(state: GaussianInState, pm: PairMomentum) -> tuple:
    """phi_in's normalization and the exponents of its p1 and p2 factors."""
    p1, p2 = pm
    norm = (2.0 * np.pi * state.sigma1**2) ** -0.25 * (
        2.0 * np.pi * state.sigma2**2
    ) ** -0.25
    g1 = 1j * np.multiply(p1, state.a1) - (np.subtract(p1, state.k) ** 2) / (
        4.0 * state.sigma1**2
    )
    g2 = 1j * np.multiply(p2, state.a2) - (np.add(p2, state.k) ** 2) / (
        4.0 * state.sigma2**2
    )
    return norm, g1, g2


def eval_in(state: GaussianInState, pm: PairMomentum) -> np.ndarray:
    """phi_in at the given momenta; supports broadcasting of p1 against p2."""
    norm, g1, g2 = _in_exponents(state, pm)
    return norm * np.exp(g1 + g2)


def _eval_in_on_grid(state: GaussianInState, pm: PairMomentum) -> np.ndarray:
    """:func:`eval_in`, formed on a tensor grid from two 1-D exps and their outer product."""
    norm, g1, g2 = _in_exponents(state, pm)
    if _is_tensor_grid(g1, g2):
        return norm * np.exp(g1) * np.exp(g2)
    return norm * np.exp(g1 + g2)


def eval_reflected_in(state: GaussianInState, pm: PairMomentum) -> np.ndarray:
    """phi_in composed with the reflection map (relative momentum reversed)."""
    return eval_in(state, reflect_momenta(pm, state.masses))


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

    @property
    def masses(self) -> MassPartition:
        return self.in_state.masses

    def __call__(self, p1: ArrayLike, p2: ArrayLike) -> np.ndarray:
        return eval_mode(self, PairMomentum(p1, p2))

    def incident_oob_mask(self, p1: ArrayLike, p2: ArrayLike) -> np.ndarray:
        """True where this mode's incident relative momentum is <= 0."""
        q = pair_to_jacobi(PairMomentum(p1, p2), self.masses).q
        incident = -np.asarray(q) if self.mode in _REVERSED_INCIDENT else np.asarray(q)
        return incident <= 0.0


def eval_mode(mw: ModeWavefunction, pm: PairMomentum) -> np.ndarray:
    """Evaluate one mode at pair momenta, broadcasting fields as needed."""
    state = mw.in_state
    if mw.mode is Mode.IN:
        return eval_in(state, pm)
    if mw.mode is Mode.REFLECTED_IN:
        return eval_reflected_in(state, pm)

    t, r = eval_amplitudes(state, mw.amplitudes, pm)
    # from 256 KiB up numpy forms these products in the Gaussian's own buffer
    # (temporary elision), as psi * t: complex products with fused
    # multiply-adds do not commute, so an explicit out= would move last bits.
    # The unused amplitude is dropped before the Gaussian is formed, which
    # lowers the peak memory of a branch by one grid-sized array.
    if mw.mode is Mode.TRANSMITTED:
        del r
        return t * _eval_in_on_grid(state, pm)
    if mw.mode is Mode.REFLECTED:
        del t
        return r * eval_reflected_in(state, pm)
    return t * _eval_in_on_grid(state, pm) + r * eval_reflected_in(state, pm)


def eval_amplitudes(
    state: GaussianInState, model: AmplitudeModel, pm: PairMomentum
) -> AmplitudePair:
    """(t, r) at the relative momenta q of the pair momenta, evaluated at |q|.

    On a tensor grid every scatterer phase exp(2i|q|x) is the outer product
    of the 1-D exponentials exp(2i*mu2*x*p1) and exp(-2i*mu1*x*p2), since
    q = mu2*p1 - mu1*p2, conjugated where q < 0.
    """
    mp = state.masses
    q = pair_to_jacobi(pm, mp).q
    # floor |q| so composite transfer matrices stay finite at stray q == 0
    # nodes; the state weight there is a deep Gaussian tail
    q_abs = np.maximum(np.abs(q), 1e-13 * state.k)
    p1, p2 = pm
    if not _is_tensor_grid(p1, p2):
        return model.amplitudes(q_abs)

    neg = q < 0.0

    def phase(x: float) -> np.ndarray:
        e = np.exp(2j * mp.mu2 * x * p1) * np.exp(-2j * mp.mu1 * x * p2)
        return np.conjugate(e, out=e, where=neg)

    return model.amplitudes(q_abs, phase)


def eval_in_jacobi(
    obj: Union[GaussianInState, ModeWavefunction], jm: JacobiMomentum
) -> np.ndarray:
    """Evaluate a state or mode at (total, relative) momenta.

    For out-modes this realizes the S-action form
    t(|q|) phi~(p, q) + r(|q|) phi~(p, -q), since reflecting the pair momenta
    of (p, q) lands exactly on (p, -q).
    """
    if isinstance(obj, GaussianInState):
        return eval_in(obj, jacobi_to_pair(jm, obj.masses))
    return eval_mode(obj, jacobi_to_pair(jm, obj.masses))


def mode_center(state: GaussianInState, mode: Mode) -> np.ndarray:
    """Center of the named mode's momentum distribution, as (p1, p2)."""
    k = state.k
    if mode in _REVERSED_INCIDENT:
        return np.array([-k, k])
    return np.array([k, -k])


def mode_covariance(state: GaussianInState, mode: Mode) -> np.ndarray:
    """Covariance matrix of |phi|^2 for the named mode in the (p1, p2) plane.

    The transmitted mode reuses the in-state covariance (amplitude factors
    only reshuffle weight inside the same envelope); the reflected modes carry
    the congruence R Sigma R^T of the reflection map R.
    """
    sig = np.diag([state.sigma1**2, state.sigma2**2])
    if mode not in _REVERSED_INCIDENT:
        return sig
    mp = state.masses
    refl = np.array(
        [[mp.mu1 - mp.mu2, 2.0 * mp.mu1], [2.0 * mp.mu2, mp.mu2 - mp.mu1]]
    )
    return refl @ sig @ refl.T
