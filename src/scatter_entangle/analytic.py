"""Closed forms for scattering-generated entanglement.

Covers the purity of a "reflected" product Gaussian (relative momentum
reversed), the Schulman no-entanglement condition, and the two
constant-amplitude approximations to the out-state purity: plain T^2 + R^2
and the refinement that weighs the reflected branch by its closed-form
purity.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .kinematics import MassPartition

__all__ = [
    "reflected_gaussian_purity",
    "reflected_gaussian_purity_mu_c",
    "schulman_satisfied",
    "approx_C",
    "approx_CR",
    "ApproximationInput",
]

_PROB_TOL = 1e-10
_SCHULMAN_TOL = 1e-9
_TINY = sys.float_info.min  # the smallest normal double


def _check_widths(sigma1: float, sigma2: float) -> None:
    if not (sigma1 > 0.0 and sigma2 > 0.0):
        raise ValueError(f"momentum widths must be positive, got ({sigma1}, {sigma2})")


def reflected_gaussian_purity_mu_c(mu1: float, c: float) -> float:
    """Purity of a reflected product Gaussian, in terms of mu1 and c = sigma2/sigma1.

    p = c / sqrt(((2*mu1 - 1)^2 + (2*mu1*c)^2) * ((2*(1 - mu1))^2 + ((1 - 2*mu1)*c)^2))

    Depends only on the mass fraction and the width ratio, not on the overall
    momentum scale. Equals 1 exactly on the equal-mass ridge mu1 = 1/2 (the
    factor (2*mu1 - 1) vanishes identically and sqrt(c*c) == c in IEEE
    arithmetic) and on the Schulman ridge c^2 = (1 - mu1)/mu1, and is < 1
    everywhere else. Where the product of the two sums of squares is not a
    normal double (at mu1 = 1/2, c outside about 1.5e-154 to 1.3e154; at
    mu1 = 0.2, c above about 2.4e77), the same ratio is taken as c over the
    two norms, c / hypot(2*mu1 - 1, 2*mu1*c) / hypot(...), which is finite
    for every c > 0 and still exactly 1 at mu1 = 1/2. Elsewhere the squared
    form is kept: the two forms differ in the last bits.
    """
    if not 0.0 < mu1 < 1.0:
        raise ValueError(f"mass fraction mu1 must lie in (0, 1), got {mu1}")
    if not c > 0.0:
        raise ValueError(f"width ratio c must be positive, got {c}")
    x1, y1 = 2.0 * mu1 - 1.0, 2.0 * mu1 * c
    x2, y2 = 2.0 * (1.0 - mu1), (1.0 - 2.0 * mu1) * c
    try:
        d = (x1**2 + y1**2) * (x2**2 + y2**2)
    except OverflowError:  # float ** raises where * would give inf
        d = math.inf
    if _TINY <= d < math.inf:
        return c / math.sqrt(d)
    return c / math.hypot(x1, y1) / math.hypot(x2, y2)


def reflected_gaussian_purity(mp: MassPartition, sigma1: float, sigma2: float) -> float:
    """Same closed form, parametrized by masses and absolute widths."""
    _check_widths(sigma1, sigma2)
    return reflected_gaussian_purity_mu_c(mp.mu1, sigma2 / sigma1)


def schulman_satisfied(mp: MassPartition, sigma1: float, sigma2: float) -> bool:
    """Whether m1/sigma1^2 == m2/sigma2^2 within relative tolerance 1e-9.

    When it holds, reversing the relative momentum maps the product Gaussian
    onto (the parity image of) itself up to phases, so scattering generates
    no interparticle entanglement from the reflected branch.
    """
    _check_widths(sigma1, sigma2)
    lhs = mp.m1 / sigma1**2
    rhs = mp.m2 / sigma2**2
    return abs(lhs - rhs) <= _SCHULMAN_TOL * 0.5 * (lhs + rhs)


def approx_C(T: float, R: float) -> float:
    """Constant-amplitude purity estimate T^2 + R^2.

    Treats both scattered branches as undistorted copies of the in-state, so
    the one-particle state is a rank-2 mixture with weights (T, R). Exact for
    the hard core with equal masses; a lower bound of 1/2 at T = R = 1/2.
    """
    _check_probabilities(T, R)
    return T * T + R * R


def approx_CR(t_k: complex, r_k: complex, reflected_purity: float) -> float:
    """Estimate |t(k)|^4 + |r(k)|^4 * reflected_purity.

    Keeps the constant-amplitude picture for branch weights but scores the
    reflected branch with the closed-form purity of the reflected Gaussian.
    Reduces to :func:`approx_C` when that purity is 1 and never exceeds it.
    """
    return ApproximationInput.from_amplitudes(t_k, r_k, reflected_purity).purity_CR()


def _check_probabilities(T: float, R: float) -> None:
    if not (0.0 <= T <= 1.0 + _PROB_TOL and 0.0 <= R <= 1.0 + _PROB_TOL):
        raise ValueError(f"T and R must be probabilities, got T={T}, R={R}")
    if abs(T + R - 1.0) > _PROB_TOL:
        raise ValueError(f"T + R must equal 1 within {_PROB_TOL}, got {T + R}")


@dataclass(frozen=True)
class ApproximationInput:
    """Validated (T, R, reflected purity) triple for the closed-form estimates."""

    T: float
    R: float
    reflected_purity: float

    def __post_init__(self) -> None:
        _check_probabilities(self.T, self.R)
        if not 0.0 < self.reflected_purity <= 1.0 + 1e-12:
            raise ValueError(
                f"reflected purity must lie in (0, 1], got {self.reflected_purity}"
            )

    @classmethod
    def from_amplitudes(
        cls, t_k: complex, r_k: complex, reflected_purity: float
    ) -> "ApproximationInput":
        return cls(abs(t_k) ** 2, abs(r_k) ** 2, reflected_purity)

    def purity_C(self) -> float:
        return approx_C(self.T, self.R)

    def purity_CR(self) -> float:
        # squares as in approx_C: libm pow(x, 2) can differ from x * x in the
        # last bit, which would let CR exceed C at reflected_purity = 1
        return self.T * self.T + self.R * self.R * self.reflected_purity
