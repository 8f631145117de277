import warnings

import numpy as np
import pytest

from scatter_entangle.amplitudes import AmplitudeModel
from scatter_entangle.kinematics import (
    JacobiMomentum,
    MassPartition,
    PairMomentum,
    jacobi_to_pair,
)
from scatter_entangle.purity import discretize, mode_grid
from scatter_entangle.wavefunction import (
    GaussianInState,
    IncomingnessWarning,
    Mode,
    ModeWavefunction,
    eval_in,
    eval_in_jacobi,
    eval_reflected_in,
    mode_center,
    mode_covariance,
)

EQUAL = MassPartition(0.5)
HEAVY2 = MassPartition(0.2)


def make_state(mu1=0.5, k=1.0, s1=0.1, s2=0.2, a1=0.0, a2=0.0):
    return GaussianInState(
        k=k, sigma1=s1, sigma2=s2, masses=MassPartition(mu1), a1=a1, a2=a2
    )


def test_peak_value_and_position():
    st = make_state()
    peak = (2 * np.pi * st.sigma1**2) ** -0.25 * (2 * np.pi * st.sigma2**2) ** -0.25
    assert st(st.k, -st.k) == pytest.approx(peak, rel=1e-14)
    # any displacement from the center lowers the modulus
    assert abs(st(st.k + 0.05, -st.k)) < peak
    assert abs(st(st.k, -st.k + 0.05)) < peak


def test_positions_contribute_phase_only():
    base = make_state()
    moved = make_state(a1=3.7, a2=-1.2)
    p1 = np.linspace(0.5, 1.5, 40)[:, None]
    p2 = np.linspace(-1.5, -0.5, 40)[None, :]
    np.testing.assert_allclose(np.abs(moved(p1, p2)), np.abs(base(p1, p2)), rtol=1e-13)
    assert not np.allclose(moved(p1, p2), base(p1, p2))


def test_unit_norm_on_wide_grid():
    st = make_state(mu1=0.2, s1=0.07, s2=0.13)
    wam = discretize(st, mode_grid(st, Mode.IN, 256))
    assert wam.norm_sq == pytest.approx(1.0, abs=1e-8)


def test_incoming_validation():
    with pytest.raises(ValueError):
        make_state(s2=1.0)  # max(sigma)/k >= 1
    with pytest.raises(ValueError):
        make_state(k=-1.0)
    with pytest.raises(ValueError):
        make_state(s1=0.0)
    with pytest.warns(IncomingnessWarning):
        make_state(s2=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_state(s1=0.2, s2=0.2)  # ratio 0.2 stays quiet


def test_sigma_q_marginal_width():
    st = make_state(mu1=0.2, s1=0.07, s2=0.13)
    expect = np.sqrt((0.8 * 0.07) ** 2 + (0.2 * 0.13) ** 2)
    assert st.sigma_q == pytest.approx(expect, rel=1e-15)


def test_equal_mass_reflection_swaps_arguments():
    st = make_state(mu1=0.5, s1=0.08, s2=0.15)
    p1 = np.linspace(-1.4, 1.4, 31)[:, None]
    p2 = np.linspace(-1.4, 1.4, 37)[None, :]
    refl = eval_reflected_in(st, PairMomentum(p1, p2))
    swapped = eval_in(st, PairMomentum(p2, p1))
    np.testing.assert_allclose(refl, swapped, rtol=1e-14)


def test_reflected_peak_sits_at_reversed_center():
    st = make_state(mu1=0.3)
    c = mode_center(st, Mode.REFLECTED_IN)
    np.testing.assert_array_equal(c, [-st.k, st.k])
    peak = abs(eval_reflected_in(st, PairMomentum(c[0], c[1])))
    near = abs(eval_reflected_in(st, PairMomentum(c[0] + 0.03, c[1])))
    assert peak == pytest.approx(abs(st(st.k, -st.k)), rel=1e-13)
    assert near < peak


def test_matched_width_reflection_modulus_symmetry():
    # sigma2^2 / sigma1^2 = mu2 / mu1 makes |reflected| = |in| at negated momenta
    st = make_state(mu1=0.2, s1=0.05, s2=0.1)
    p1 = np.linspace(-1.5, 1.5, 41)[:, None]
    p2 = np.linspace(-1.5, 1.5, 43)[None, :]
    lhs = np.abs(eval_reflected_in(st, PairMomentum(p1, p2)))
    rhs = np.abs(eval_in(st, PairMomentum(-p1, -p2)))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


def test_hard_core_branches():
    st = make_state(mu1=0.35)
    model = AmplitudeModel.hard_core(st.masses)
    tra = ModeWavefunction(Mode.TRANSMITTED, st, model)
    ref = ModeWavefunction(Mode.REFLECTED, st, model)
    p1 = np.linspace(-1.3, 1.3, 25)[:, None]
    p2 = np.linspace(-1.3, 1.3, 27)[None, :]
    np.testing.assert_array_equal(tra(p1, p2), 0.0)
    np.testing.assert_allclose(
        ref(p1, p2), -eval_reflected_in(st, PairMomentum(p1, p2)), rtol=1e-14
    )


def test_out_is_sum_of_branches():
    st = make_state(mu1=0.2)
    model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
    out = ModeWavefunction(Mode.OUT, st, model)
    tra = ModeWavefunction(Mode.TRANSMITTED, st, model)
    ref = ModeWavefunction(Mode.REFLECTED, st, model)
    p1 = np.linspace(-1.4, 1.4, 33)[:, None]
    p2 = np.linspace(-1.4, 1.4, 29)[None, :]
    np.testing.assert_allclose(out(p1, p2), tra(p1, p2) + ref(p1, p2), rtol=1e-14)


def test_transmitted_peak_scales_with_amplitude():
    st = make_state(mu1=0.2)
    model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
    tra = ModeWavefunction(Mode.TRANSMITTED, st, model)
    t_k, _ = model.amplitudes(st.k)
    assert abs(tra(st.k, -st.k)) == pytest.approx(
        abs(t_k) * abs(st(st.k, -st.k)), rel=1e-13
    )


def test_modes_that_scatter_require_a_model():
    st = make_state()
    with pytest.raises(ValueError):
        ModeWavefunction(Mode.OUT, st)
    ModeWavefunction(Mode.IN, st)  # fine without one


def test_tally_counts_out_of_convention_points():
    st = make_state(mu1=0.5)
    model = AmplitudeModel.hard_core(st.masses)
    ref = ModeWavefunction(Mode.REFLECTED, st, model)
    # q = (p1 - p2)/2 at equal masses; incident for REFLECTED is -q
    p1 = np.array([1.0, -1.0, 0.5])
    p2 = np.array([-1.0, 1.0, 0.5])
    assert np.all(np.isfinite(ref(p1, p2)))
    mask = ref.incident_oob_mask(p1, p2)
    assert mask.size == 3
    assert np.count_nonzero(mask) == 2  # q > 0 and q == 0 both flag
    assert ref.incident_oob_mask(np.array([]), np.array([])).size == 0

    mask_in = ModeWavefunction(Mode.IN, st).incident_oob_mask(p1, p2)
    assert np.count_nonzero(mask_in) == 2  # q < 0 and q == 0
    np.testing.assert_array_equal(mask_in, [False, True, True])


def test_jacobi_evaluation_matches_pair_form():
    st = make_state(mu1=0.2, s1=0.06, s2=0.11)
    rng = np.random.default_rng(11)
    p = rng.normal(0.0, 0.2, 64)
    q = rng.normal(st.k, 0.1, 64)
    via_jacobi = eval_in_jacobi(st, JacobiMomentum(p, q))
    direct = st(0.2 * p + q, 0.8 * p - q)  # p1 = mu1 p + q, p2 = mu2 p - q
    np.testing.assert_allclose(via_jacobi, direct, rtol=1e-13)


def test_out_mode_factorizes_in_jacobi_coordinates():
    # S acts only on the relative momentum: out(p, q) = t phi(p, q) + r phi(p, -q)
    st = make_state(mu1=0.2, s1=0.06, s2=0.11)
    model = AmplitudeModel.dirac_delta(2.0, st.masses)
    out = ModeWavefunction(Mode.OUT, st, model)
    rng = np.random.default_rng(7)
    p = rng.normal(0.0, 0.3, 200)
    q = rng.choice([-1.0, 1.0], 200) * rng.uniform(0.3, 1.7, 200)
    got = eval_in_jacobi(out, JacobiMomentum(p, q))
    t, r = model.amplitudes(np.abs(q))
    expect = t * eval_in_jacobi(st, JacobiMomentum(p, q)) + r * eval_in_jacobi(
        st, JacobiMomentum(p, -q)
    )
    # coordinate round-trip costs an ulp on q before the amplitudes see it
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-300)


def test_mode_covariance_reflected_congruence():
    st = make_state(mu1=0.3, s1=0.1, s2=0.25)
    mp = st.masses
    refl = np.array([[mp.mu1 - mp.mu2, 2 * mp.mu1], [2 * mp.mu2, mp.mu2 - mp.mu1]])
    sig = np.diag([st.sigma1**2, st.sigma2**2])
    np.testing.assert_allclose(
        mode_covariance(st, Mode.REFLECTED), refl @ sig @ refl.T, rtol=1e-15
    )
    np.testing.assert_array_equal(mode_covariance(st, Mode.IN), sig)
    np.testing.assert_array_equal(mode_covariance(st, Mode.TRANSMITTED), sig)


def test_matched_width_reflection_preserves_covariance():
    st = make_state(mu1=0.2, s1=0.125, s2=0.25)  # sigma2^2/sigma1^2 = 4 = mu2/mu1
    cov = mode_covariance(st, Mode.REFLECTED)
    np.testing.assert_allclose(
        cov, np.diag([st.sigma1**2, st.sigma2**2]), rtol=1e-14, atol=1e-18
    )


def test_zero_relative_momentum_stays_finite():
    # exact q = 0 node must not blow up the composite transfer matrix
    st = make_state(mu1=0.5, s1=0.05, s2=0.05)
    model = AmplitudeModel.double_dirac_delta(4.0, 2.0, st.masses)
    out = ModeWavefunction(Mode.OUT, st, model)
    val = out(1.0, 1.0)  # q = 0.5*1 - 0.5*1 == 0
    assert np.isfinite(val)
