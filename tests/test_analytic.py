import math

import numpy as np
import pytest

from scatter_entangle.analytic import (
    ApproximationInput,
    approx_C,
    approx_CR,
    reflected_gaussian_purity,
    reflected_gaussian_purity_mu_c,
    schulman_satisfied,
)
from scatter_entangle.kinematics import MassPartition


def test_reflected_purity_frozen_values():
    # mu1 = 0.2, c = 1: denominators (0.36 + 0.16) and (2.56 + 0.36)
    assert reflected_gaussian_purity_mu_c(0.2, 1.0) == pytest.approx(
        1.0 / math.sqrt(0.52 * 2.92), rel=1e-15
    )
    # mu1 = 0.1, c = 4: (0.64 + 0.64) and (3.24 + 10.24)
    assert reflected_gaussian_purity_mu_c(0.1, 4.0) == pytest.approx(
        4.0 / math.sqrt(1.28 * 13.48), rel=1e-15
    )


def test_both_parametrizations_agree():
    mp = MassPartition.from_masses(1.3, 2.9)
    s1, s2 = 0.7, 0.22
    assert reflected_gaussian_purity(mp, s1, s2) == pytest.approx(
        reflected_gaussian_purity_mu_c(mp.mu1, s2 / s1), rel=1e-14
    )


def test_equal_mass_ridge_is_exactly_one():
    # (2*mu1 - 1) vanishes identically and sqrt(c*c) == c in IEEE arithmetic
    for c in (0.25, 0.5, 1.0, 2.0, 4.0, 0.7071067811865476, 123.456):
        assert reflected_gaussian_purity_mu_c(0.5, c) == 1.0


def test_schulman_ridge_is_one_to_two_ulp():
    for mu1 in (0.1, 0.2, 0.35, 0.65, 0.8, 0.9):
        c = math.sqrt((1.0 - mu1) / mu1)
        assert abs(reflected_gaussian_purity_mu_c(mu1, c) - 1.0) <= 5e-16


def test_purity_below_one_off_the_ridges():
    for mu1 in (0.1, 0.2, 0.35, 0.65, 0.9):
        for c in (0.25, 0.5, 1.0, 4.0):
            if abs(c * c - (1.0 - mu1) / mu1) < 1e-6:
                continue
            assert reflected_gaussian_purity_mu_c(mu1, c) < 1.0 - 1e-4


def test_particle_relabeling_symmetry():
    # swapping (m1, sigma1) with (m2, sigma2) maps (mu1, c) to (1 - mu1, 1/c)
    for mu1, c in ((0.2, 0.5), (0.35, 2.0), (0.1, 4.0)):
        assert reflected_gaussian_purity_mu_c(mu1, c) == pytest.approx(
            reflected_gaussian_purity_mu_c(1.0 - mu1, 1.0 / c), rel=1e-14
        )


def test_every_representable_width_ratio_gives_a_finite_purity():
    # at mu1 = 1/2, c^2 overflows above about 1.3e154 and underflows below
    # 1.5e-154; there the closed form takes the norms of its two factors
    eps = np.finfo(float).eps
    for mu1 in (1e-12, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0 - 1e-12):
        m2 = 1.0 - mu1
        m1 = 1.0 - m2  # m1 + m2 == 1 exactly, so the two labelings are one state
        for e in range(-300, 301):
            c = 10.0**e
            p = reflected_gaussian_purity_mu_c(mu1, c)
            assert math.isfinite(p) and 0.0 < p <= 1.0 + 2 * eps, (mu1, c, p)
            if mu1 == 0.5:
                assert p == 1.0
            assert reflected_gaussian_purity_mu_c(m1, c) == pytest.approx(
                reflected_gaussian_purity_mu_c(m2, 1.0 / c), rel=4 * eps
            )


def test_ordinary_width_ratios_keep_the_squared_form_bitwise():
    rng = np.random.default_rng(7)
    for mu1, c in zip(rng.uniform(0.01, 0.99, 2000), 10.0 ** rng.uniform(-6, 6, 2000)):
        mu1, c = float(mu1), float(c)
        d1 = (2.0 * mu1 - 1.0) ** 2 + (2.0 * mu1 * c) ** 2
        d2 = (2.0 * (1.0 - mu1)) ** 2 + ((1.0 - 2.0 * mu1) * c) ** 2
        assert reflected_gaussian_purity_mu_c(mu1, c) == c / math.sqrt(d1 * d2)


def test_scale_invariance_analytic():
    mp = MassPartition(0.2)
    p_small = reflected_gaussian_purity(mp, 0.013, 0.029)
    p_large = reflected_gaussian_purity(mp, 0.13, 0.29)
    assert abs(p_large - p_small) < 1e-12 * p_small


def test_reflected_purity_rejects_bad_input():
    with pytest.raises(ValueError):
        reflected_gaussian_purity_mu_c(0.0, 1.0)
    with pytest.raises(ValueError):
        reflected_gaussian_purity_mu_c(0.5, 0.0)
    with pytest.raises(ValueError):
        reflected_gaussian_purity(MassPartition(0.5), -1.0, 1.0)


def test_schulman_condition():
    mp = MassPartition.from_masses(1.0, 4.0)
    assert schulman_satisfied(mp, 1.0, 2.0)  # m2/m1 = 4 = (sigma2/sigma1)^2
    assert not schulman_satisfied(mp, 1.0, 1.0)
    assert schulman_satisfied(MassPartition(0.5), 0.3, 0.3)
    with pytest.raises(ValueError):
        schulman_satisfied(mp, 0.0, 1.0)


def test_approx_C_values():
    assert approx_C(1.0, 0.0) == 1.0
    assert approx_C(0.5, 0.5) == pytest.approx(0.5, rel=1e-15)
    assert approx_C(0.3, 0.7) == pytest.approx(0.58, rel=1e-14)


def test_approx_C_rejects_inconsistent_probabilities():
    with pytest.raises(ValueError):
        approx_C(0.6, 0.6)
    with pytest.raises(ValueError):
        approx_C(-0.1, 1.1)


def test_approx_CR_hard_core_reduces_to_reflected_purity():
    pbar = reflected_gaussian_purity_mu_c(0.2, 1.0)
    assert approx_CR(0.0, -1.0, pbar) == pytest.approx(pbar, rel=1e-15)


def test_approx_CR_balanced_delta_point():
    # x = 1: r = i/(1 - i), |t|^2 = |r|^2 = 1/2
    r = 1j / (1.0 - 1j)
    t = 1.0 + r
    pbar = reflected_gaussian_purity_mu_c(0.2, 1.0)
    want = 0.25 + 0.25 * pbar
    assert approx_CR(t, r, pbar) == pytest.approx(want, rel=1e-12)


def test_approx_CR_never_exceeds_C():
    rng = np.random.default_rng(3)
    for _ in range(300):
        T = rng.uniform(0.0, 1.0)
        R = 1.0 - T
        t = math.sqrt(T)
        r = 1j * math.sqrt(R)
        pbar = rng.uniform(0.05, 1.0)
        assert approx_CR(t, r, pbar) <= approx_C(T, R) + 1e-15


def test_approx_CR_never_exceeds_C_bitwise():
    # 1e5 draws: pow(x, 2) and x * x differ in the last bit on dozens of them
    rng = np.random.default_rng(11)
    for T, p in rng.uniform(0.0, 1.0, (100_000, 2)).tolist():
        at_one = ApproximationInput(T, 1.0 - T, 1.0)
        assert at_one.purity_CR() == at_one.purity_C()
        below = ApproximationInput(T, 1.0 - T, 1.0 - p)  # reflected purity in (0, 1]
        assert below.purity_CR() <= below.purity_C()


def test_approx_CR_equals_C_only_at_unit_reflected_purity():
    t, r = math.sqrt(0.3), 1j * math.sqrt(0.7)
    assert approx_CR(t, r, 1.0) == pytest.approx(approx_C(0.3, 0.7), rel=1e-12)
    assert approx_CR(t, r, 0.9) < approx_C(0.3, 0.7) - 1e-3


def test_approx_CR_rejects_non_unitary_pair():
    with pytest.raises(ValueError):
        approx_CR(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        approx_CR(0.5, 0.5j, 1.5)


def test_approximation_input_validation_and_methods():
    ai = ApproximationInput.from_amplitudes(math.sqrt(0.4), 1j * math.sqrt(0.6), 0.8)
    assert ai.T == pytest.approx(0.4, rel=1e-14)
    assert ai.purity_C() == pytest.approx(0.4**2 + 0.6**2, rel=1e-13)
    assert ai.purity_CR() == pytest.approx(0.4**2 + 0.8 * 0.6**2, rel=1e-13)
    with pytest.raises(ValueError):
        ApproximationInput(0.7, 0.7, 1.0)
    with pytest.raises(ValueError):
        ApproximationInput(0.5, 0.5, 0.0)
