"""Self-check suite: invariants the physics guarantees, run on demand.

Each check returns a :class:`CheckResult` with a residual-style detail
string. The suite is deliberately fast (``scatter-entangle validate``
takes about 0.3 s on a 2-core x86-64 machine, under 0.1 s of it in the
checks) and covers the ground truth the package rests on: unitarity, the
reflection involution, closed-form agreement, mode additivity, and
invariance of the centre-of-mass/relative purity under scattering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .amplitudes import AmplitudeModel, find_resonances, unitarity_residual
from .analytic import (
    approx_C,
    approx_CR,
    reflected_gaussian_purity_mu_c,
)
from .kinematics import MassPartition, PairMomentum, pair_to_jacobi, reflect_momenta
from .purity import (
    discretize,
    joint_grid,
    mode_grid,
    purity_adaptive,
    purity_from_matrix,
    purity_out,
    purity_pq_adaptive,
)
from .wavefunction import GaussianInState, Mode, ModeWavefunction

__all__ = ["CheckResult", "ShippedCase", "shipped_parameter_sets", "run_all"]

# seed of the involution check's random momenta, so every run draws the same
_RNG_SEED = 2024


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ShippedCase:
    """A named (state, model) pair exercised by the self checks."""

    name: str
    state: GaussianInState
    model: AmplitudeModel


def shipped_parameter_sets() -> List[ShippedCase]:
    """Reference configurations spanning all three potentials.

    Momentum scale is fixed at k = 1 (purities are scale free); delta
    strengths put the central momentum at x = k/b = 1, the double delta at
    a*b = 10 with k well off resonance.
    """
    cases = []
    m_eq = MassPartition(0.5)
    m_42 = MassPartition(0.2)
    k = 1.0
    for name, mp in (("hard_core/equal_mass", m_eq), ("hard_core/m2_4m1", m_42)):
        cases.append(
            ShippedCase(
                name,
                GaussianInState(k=k, sigma1=k / 10, sigma2=k / 5, masses=mp),
                AmplitudeModel.hard_core(mp),
            )
        )
    cases.append(
        ShippedCase(
            "delta/m2_4m1_c_half",
            GaussianInState(k=k, sigma1=k / 5, sigma2=k / 10, masses=m_42),
            AmplitudeModel.dirac_delta(k / m_42.mu_red, m_42),
        )
    )
    cases.append(
        ShippedCase(
            "delta/equal_mass",
            GaussianInState(k=k, sigma1=k / 5, sigma2=k / 5, masses=m_eq),
            AmplitudeModel.dirac_delta(k / m_eq.mu_red, m_eq),
        )
    )
    cases.append(
        ShippedCase(
            "delta/schulman",
            GaussianInState(k=k, sigma1=k / 10, sigma2=k / 5, masses=m_42),
            AmplitudeModel.dirac_delta(k / m_42.mu_red, m_42),
        )
    )
    # k = 0.10*b sits between resonances; a*b = 10
    b = 1.0
    cases.append(
        ShippedCase(
            "double_delta/off_resonance",
            GaussianInState(k=0.10 * b, sigma1=0.01 * b, sigma2=0.005 * b, masses=m_42),
            AmplitudeModel.double_dirac_delta(
                b / m_42.mu_red, 10.0 / b, m_42
            ),
        )
    )
    return cases


def _check_involution(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        mp = MassPartition(float(rng.uniform(0.05, 0.95)))
        pm = PairMomentum(*rng.normal(0.0, 5.0, size=2))
        rr = reflect_momenta(reflect_momenta(pm, mp), mp)
        jac = pair_to_jacobi(pm, mp)
        jac_r = pair_to_jacobi(reflect_momenta(pm, mp), mp)
        worst = max(
            worst,
            abs(rr.p1 - pm.p1),
            abs(rr.p2 - pm.p2),
            abs(jac_r.p - jac.p),
            abs(jac_r.q + jac.q),
        )
    return CheckResult(
        "kinematics.reflection_involution", worst < 1e-12, f"max residual {worst:.2e}"
    )


def _check_unitarity() -> CheckResult:
    mp = MassPartition(0.2)
    q = np.linspace(1e-3, 5.0, 10_000)
    residuals = []
    for model in (
        AmplitudeModel.hard_core(mp),
        AmplitudeModel.dirac_delta(2.7, mp),
        AmplitudeModel.double_dirac_delta(2.7, 3.1, mp),
    ):
        residuals.append(float(np.max(unitarity_residual(model.amplitudes(q)))))
    worst = max(residuals)
    return CheckResult("amplitudes.unitarity", worst < 1e-12, f"max residual {worst:.2e}")


def _check_resonance() -> CheckResult:
    mp = MassPartition(0.2)
    b = 1.0
    model = AmplitudeModel.double_dirac_delta(b / mp.mu_red, 10.0 / b, mp)
    roots = find_resonances(model, (0.01 * b, 1.0 * b), count=3)
    if len(roots) == 0:
        return CheckResult("amplitudes.resonance", False, "no roots found")
    t, _ = model.amplitudes(roots)
    worst = float(np.max(np.abs(np.abs(t) ** 2 - 1.0)))
    return CheckResult(
        "amplitudes.resonance",
        worst < 1e-10,
        f"{len(roots)} roots, max | |t|^2 - 1 | = {worst:.2e}",
    )


def _check_ridges() -> CheckResult:
    worst = 0.0
    for c in (0.25, 0.7, 1.0, 3.3):
        worst = max(worst, abs(reflected_gaussian_purity_mu_c(0.5, c) - 1.0))
    for mu1 in (0.1, 0.2, 0.35, 0.8):
        c = np.sqrt((1.0 - mu1) / mu1)
        worst = max(worst, abs(reflected_gaussian_purity_mu_c(mu1, c) - 1.0))
    return CheckResult("analytic.separability_ridges", worst < 5e-16, f"max |p - 1| = {worst:.2e}")


def _check_closed_form_quadrature() -> CheckResult:
    mp = MassPartition(0.35)
    k = 1.0
    c = 0.5
    st = GaussianInState(k=k, sigma1=k / 10, sigma2=c * k / 10, masses=mp)
    rep = purity_adaptive(
        ModeWavefunction(Mode.REFLECTED_IN, st), mode_grid(st, Mode.REFLECTED_IN)
    )
    expected = reflected_gaussian_purity_mu_c(mp.mu1, c)
    diff = abs(rep.purity - expected)
    return CheckResult(
        "purity.reflected_gaussian_vs_closed_form",
        diff < 1e-4 and rep.converged,
        f"|quadrature - closed form| = {diff:.2e} at grid {rep.grid_n}",
    )


def _check_hardcore() -> CheckResult:
    mp = MassPartition(0.2)
    st = GaussianInState(k=1.0, sigma1=0.1, sigma2=0.1, masses=mp)
    rep = purity_out(st, AmplitudeModel.hard_core(mp))
    expected = reflected_gaussian_purity_mu_c(0.2, 1.0)
    diff = abs(rep.purity - expected)
    return CheckResult(
        "purity.hard_core_closed_form", diff < 1e-5, f"|purity - closed form| = {diff:.2e}"
    )


def _check_mode_split() -> CheckResult:
    (case,) = [c for c in shipped_parameter_sets() if c.name == "delta/schulman"]
    st, model = case.state, case.model
    rep = purity_out(st, model)
    out = ModeWavefunction(Mode.OUT, st, model)
    joint, _ = purity_from_matrix(discretize(out, joint_grid(st)), spectrum=False)
    add_gap = abs(joint - (rep.purity_tra + rep.purity_ref))
    ok = rep.overlap < 1e-8 and add_gap < 1e-5
    return CheckResult(
        "purity.mode_split_additivity",
        ok,
        f"overlap {rep.overlap:.2e}, additivity gap {add_gap:.2e}",
    )


def _check_pq_invariance() -> CheckResult:
    worst = 0.0
    for case in shipped_parameter_sets():
        if case.name in ("hard_core/equal_mass", "delta/equal_mass"):
            continue  # keep the check to three distinct potentials
        r_in = purity_pq_adaptive(case.state)
        r_out = purity_pq_adaptive(case.state, case.model)
        worst = max(worst, abs(r_in.purity - r_out.purity))
    return CheckResult(
        "purity.pq_invariance", worst < 1e-4, f"max |pq(out) - pq(in)| = {worst:.2e}"
    )


def _check_approx_ordering() -> CheckResult:
    mp = MassPartition(0.2)
    pbar = reflected_gaussian_purity_mu_c(0.2, 0.5)
    worst = -np.inf
    for x in np.linspace(0.2, 3.0, 40):
        model = AmplitudeModel.dirac_delta(1.0, mp)
        t, r = model.amplitudes(x * model.strength_scale)
        gap = approx_CR(t, r, pbar) - approx_C(abs(t) ** 2, abs(r) ** 2)
        worst = max(worst, gap)
    return CheckResult(
        "analytic.approx_CR_le_C", worst <= 1e-12, f"max (CR - C) = {worst:.2e}"
    )


def run_all() -> List[CheckResult]:
    """Run every self check; independent of execution order."""
    rng = np.random.default_rng(_RNG_SEED)
    return [
        _check_involution(rng),
        _check_unitarity(),
        _check_resonance(),
        _check_ridges(),
        _check_closed_form_quadrature(),
        _check_hardcore(),
        _check_mode_split(),
        _check_pq_invariance(),
        _check_approx_ordering(),
    ]
