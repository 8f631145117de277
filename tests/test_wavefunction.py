import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest

from scatter_entangle.amplitudes import AmplitudeModel, find_resonances
from scatter_entangle.kinematics import (
    JacobiMomentum,
    MassPartition,
    PairMomentum,
    jacobi_to_pair,
    reflect_momenta,
)
from scatter_entangle import purity as purity_module
from scatter_entangle.purity import (
    axis_nodes,
    discretize,
    joint_grid,
    mode_grid,
    purity_from_matrix,
)
from scatter_entangle.wavefunction import (
    GaussianInState,
    IncomingnessWarning,
    Mode,
    ModeWavefunction,
    _eval_reflected_in,
)

EQUAL = MassPartition(0.5)
HEAVY2 = MassPartition(0.2)


def make_state(mu1=0.5, k=1.0, s1=0.1, s2=0.2, a1=0.0, a2=0.0):
    return GaussianInState(
        k=k, sigma1=s1, sigma2=s2, masses=MassPartition(mu1), a1=a1, a2=a2
    )


def eval_reflected_in(st, pm):
    """The reference reflected in-state: phi_in at the reflected momenta."""
    return st(*reflect_momenta(pm, st.masses))


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


@pytest.mark.parametrize(
    "k, s1, s2",
    [
        (1e-170, 2e-171, 1e-171),  # every square underflows to zero
        (1e-153, 2e-154, 1e-154),  # sigma2^2 is subnormal
        (1e154, 2e153, 1e153),  # an envelope's square would overflow
        (1e160, 2e159, 1e159),  # k^2 overflows
        (1.0, 0.2, 1e-160),
    ],
)
def test_scales_whose_squares_leave_the_normal_doubles_are_rejected(k, s1, s2):
    with pytest.raises(ValueError, match="k, sigma1 and sigma2 must lie in"):
        GaussianInState(k=k, sigma1=s1, sigma2=s2, masses=HEAVY2)


def test_the_extreme_normal_scales_are_accepted():
    for k in (1e-152, 2e152):
        st = GaussianInState(k=k, sigma1=0.2 * k, sigma2=0.1 * k, masses=HEAVY2)
        assert np.isfinite(st(k, -k))


@pytest.mark.parametrize(
    "k, a1, a2",
    [
        (1.0, 1e308, 0.0),  # k |a1| past the bound
        (1.0, 0.0, -1e308),
        (1e100, 2.9e206, 0.0),
        (1e-3, 1.7e308, 0.0),  # k |a1| within it, but 3 |a1| overflows
        (1.0, float("nan"), 0.0),
    ],
)
def test_positions_whose_phases_overflow_are_rejected(k, a1, a2):
    with pytest.raises(ValueError, match=r"\|a1\|, \|a2\| and k times each must be at most"):
        GaussianInState(k=k, sigma1=0.2 * k, sigma2=0.1 * k, masses=HEAVY2, a1=a1, a2=a2)


@pytest.mark.parametrize("k, a", [(1.0, 2.8e306), (1e-3, 2.8e306), (1e100, 2.8e206)])
def test_positions_at_the_bound_sample_finite_phases(k, a):
    # the out mode's joint grid spans both lobes, and discretize raises on a
    # non-finite sample; within one branch the phases are local, so its
    # purity ignores them
    model = AmplitudeModel.dirac_delta(k / HEAVY2.mu_red, HEAVY2)
    purities = []
    for a1, a2 in ((a, -a), (0.0, 0.0)):
        st = GaussianInState(k=k, sigma1=0.2 * k, sigma2=0.1 * k, masses=HEAVY2, a1=a1, a2=a2)
        discretize(ModeWavefunction(Mode.OUT, st, model), joint_grid(st, 64))
        branches = [
            discretize(ModeWavefunction(mode, st, model), mode_grid(st, mode, 64))
            for mode in (Mode.TRANSMITTED, Mode.REFLECTED)
        ]
        purities.append([purity_from_matrix(wam, spectrum=False)[0] for wam in branches])
    np.testing.assert_allclose(purities[0], purities[1], rtol=1e-12)


def test_windows_stay_within_the_reach_the_state_range_assumes():
    # _SCALES and _PHASE_BOUND divide by 64 on two assumptions about the windows
    # that purity.py decides (+-8 sigma per axis): every node lies within 21 k
    # of the origin, and no envelope difference p1' - k or p2' + k, taken at
    # the momenta (p1', p2') where a mode evaluates phi_in, exceeds 64 k
    reach = spread = 0.0
    for mu1 in (1e-12, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0 - 1e-12):
        mp = MassPartition(mu1)
        for s1, s2 in itertools.product((1e-6, 0.5, 0.999999), repeat=2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IncomingnessWarning)
                st = GaussianInState(k=1.0, sigma1=s1, sigma2=s2, masses=mp)
            grids = [
                (mode_grid(st, m), [m in (Mode.REFLECTED, Mode.REFLECTED_IN)])
                for m in (Mode.IN, Mode.REFLECTED_IN, Mode.TRANSMITTED, Mode.REFLECTED)
            ]
            grids.append((joint_grid(st), [False, True]))  # the out mode evaluates both
            for grid, reflections in grids:
                w1, w2 = grid.window1, grid.window2
                # the bounds are linear in the momenta, so the window corners attain them
                p1 = np.array([w1.center - w1.halfwidth, w1.center + w1.halfwidth])[:, None]
                p2 = np.array([w2.center - w2.halfwidth, w2.center + w2.halfwidth])[None, :]
                reach = max(reach, np.abs(p1).max(), np.abs(p2).max())
                for reflected in reflections:
                    q1, q2 = reflect_momenta(PairMomentum(p1, p2), mp) if reflected else (p1, p2)
                    spread = max(spread, np.abs(q1 - 1.0).max(), np.abs(q2 + 1.0).max())
    assert reach < 21.0
    assert spread < 64.0


def test_sigma_q_marginal_width():
    st = make_state(mu1=0.2, s1=0.07, s2=0.13)
    expect = np.sqrt((0.8 * 0.07) ** 2 + (0.2 * 0.13) ** 2)
    assert st.sigma_q == pytest.approx(expect, rel=1e-15)


def test_equal_mass_reflection_swaps_arguments():
    st = make_state(mu1=0.5, s1=0.08, s2=0.15)
    p1 = np.linspace(-1.4, 1.4, 31)[:, None]
    p2 = np.linspace(-1.4, 1.4, 37)[None, :]
    refl = eval_reflected_in(st, PairMomentum(p1, p2))
    swapped = st(p2, p1)
    np.testing.assert_allclose(refl, swapped, rtol=1e-14)


def test_reflected_peak_sits_at_reversed_center():
    st = make_state(mu1=0.3)
    grid = mode_grid(st, Mode.REFLECTED_IN)
    c = grid.window1.center, grid.window2.center
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
    rhs = np.abs(st(-p1, -p2))
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


def test_jacobi_evaluation_matches_pair_form():
    st = make_state(mu1=0.2, s1=0.06, s2=0.11)
    rng = np.random.default_rng(11)
    p = rng.normal(0.0, 0.2, 64)
    q = rng.normal(st.k, 0.1, 64)
    via_jacobi = st(*jacobi_to_pair(JacobiMomentum(p, q), st.masses))
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
    def at(f, q):
        return f(*jacobi_to_pair(JacobiMomentum(p, q), st.masses))

    got = at(out, q)
    t, r = model.amplitudes(np.abs(q))
    expect = t * at(st, q) + r * at(st, -q)
    # coordinate round-trip costs an ulp on q before the amplitudes see it
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-300)


def halfwidths(st, mode):
    grid = mode_grid(st, mode)
    return np.array([grid.window1.halfwidth, grid.window2.halfwidth])


def assert_widened_by_at_most_a_percent_on_one_axis(hw, box, rtol=0.0):
    """Every window holds its +-8 sigma box, and at most one is wider, by at most 1 %.

    ``rtol`` allows for a box computed by another formula than the engine's.
    """
    widening = hw / box - 1.0
    assert np.all(widening >= -rtol)
    assert np.count_nonzero(widening > rtol) <= 1
    assert np.all(widening <= 0.01)


def test_reflected_window_spans_the_congruence_covariance():
    st = make_state(mu1=0.3, s1=0.1, s2=0.25)
    mp = st.masses
    refl = np.array([[mp.mu1 - mp.mu2, 2 * mp.mu1], [2 * mp.mu2, mp.mu2 - mp.mu1]])
    sig = np.diag([st.sigma1**2, st.sigma2**2])
    assert_widened_by_at_most_a_percent_on_one_axis(
        halfwidths(st, Mode.REFLECTED), 8.0 * np.sqrt(np.diag(refl @ sig @ refl.T)), rtol=1e-15
    )
    assert_widened_by_at_most_a_percent_on_one_axis(
        halfwidths(st, Mode.IN), 8.0 * np.sqrt(np.diag(sig))
    )
    assert_widened_by_at_most_a_percent_on_one_axis(
        halfwidths(st, Mode.TRANSMITTED), 8.0 * np.sqrt(np.diag(sig))
    )


@pytest.mark.parametrize("mu1", [0.1, 0.2, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("widths", [(0.2, 0.1), (0.05, 0.3), (0.3, 0.05), (0.13, 0.11)])
def test_every_level_of_a_ladder_is_commensurate(mu1, widths):
    # criterion 10's ladder shapes: both axes double from (128, 64), then p1 alone
    st = make_state(mu1=mu1, s1=widths[0], s2=widths[1])
    mp = st.masses
    bases = [mode_grid(st, mode, (128, 64)) for mode in (Mode.TRANSMITTED, Mode.REFLECTED)]
    for base in bases + [joint_grid(st, (128, 64))]:
        levels = [base]
        while levels[-1].doubled(4096, 1024) != levels[-1]:
            levels.append(levels[-1].doubled(4096, 1024))
        assert [(g.n1, g.n2) for g in levels] == [
            (128, 64), (256, 128), (512, 256), (1024, 512), (2048, 1024), (4096, 1024)
        ]
        for grid in levels:
            _, h1 = axis_nodes(grid.n1, grid.window1)
            _, h2 = axis_nodes(grid.n2, grid.window2)
            step1, step2 = mp.mu2 * h1, mp.mu1 * h2
            ratio = Fraction(step1 / step2).limit_denominator(10**4)
            assert ratio.numerator <= 10**4
            assert abs(step1 * ratio.denominator - step2 * ratio.numerator) <= (
                1e-14 * step1 * ratio.denominator
            )


def test_single_lobe_windows_refuse_the_out_mode():
    # a window on the transmitted lobe alone would hold half of the out-state
    with pytest.raises(ValueError, match="joint_grid"):
        mode_grid(make_state(mu1=0.2), Mode.OUT)


def test_matched_width_reflection_preserves_the_window():
    st = make_state(mu1=0.2, s1=0.125, s2=0.25)  # sigma2^2/sigma1^2 = 4 = mu2/mu1
    np.testing.assert_allclose(
        halfwidths(st, Mode.REFLECTED), halfwidths(st, Mode.IN), rtol=1e-14
    )


def test_zero_relative_momentum_stays_finite():
    # exact q = 0 node must not blow up the composite transfer matrix
    st = make_state(mu1=0.5, s1=0.05, s2=0.05)
    model = AmplitudeModel.double_dirac_delta(4.0, 2.0, st.masses)
    out = ModeWavefunction(Mode.OUT, st, model)
    val = out(1.0, 1.0)  # q = 0.5*1 - 0.5*1 == 0
    assert np.isfinite(val)


CRITERION_10_MODEL = AmplitudeModel.double_dirac_delta(6.25, 10.0, HEAVY2)  # a*b = 10


def _crossing_grid():
    # the w = 5 transmitted grid of the criterion-10 layout: about a fifth of
    # its nodes have q < 0, down to |q| ~ 3e-6 k
    k = find_resonances(CRITERION_10_MODEL, (0.01, 1.0), 1)[0] + 0.018
    st = GaussianInState(k=k, sigma1=k / 5, sigma2=k / 10, masses=HEAVY2)
    grid = mode_grid(st, Mode.TRANSMITTED, (512, 256))
    x1, h1 = axis_nodes(grid.n1, grid.window1)
    x2, h2 = axis_nodes(grid.n2, grid.window2)
    return st, (x1, h1, x2, h2)


@pytest.mark.parametrize(
    "model",
    [
        CRITERION_10_MODEL,
        AmplitudeModel.composite([(3.0, -7.0), (5.0, 1.5), (2.0, 4.0)], HEAVY2),
    ],
)
def test_lattice_amplitudes_match_pointwise_evaluation(model):
    st, (x1, h1, x2, h2) = _crossing_grid()
    q = HEAVY2.mu2 * x1[:, None] - HEAVY2.mu1 * x2[None, :]
    assert 0.1 < np.mean(q < 0) < 0.3
    fn = ModeWavefunction(Mode.TRANSMITTED, st, model)
    t, r = purity_module._q_lattice(fn, x1, h1, x2, h2)
    t_ref, r_ref = model.amplitudes(np.abs(q))
    # near q = 0 the chain's O(g^2) terms cancel to O(g), g = i*b/q, so a
    # last-bit difference between a lattice momentum and the node's own
    # grows to about 1e-16 * b/|q| in t and r there; the bound widens below
    # |q| = 0.01 k accordingly
    tol = 1e-13 * np.maximum(1.0, 1e-2 * st.k / np.abs(q))
    assert np.all(np.abs(t - t_ref) <= tol)
    assert np.all(np.abs(r - r_ref) <= tol)


def test_transmitted_branch_on_a_tensor_grid_matches_pointwise_evaluation():
    st, (x1, _, x2, _) = _crossing_grid()
    tra = ModeWavefunction(Mode.TRANSMITTED, st, CRITERION_10_MODEL)
    pm = PairMomentum(x1[:, None], x2[None, :])
    full = PairMomentum(*np.broadcast_arrays(pm.p1, pm.p2))
    tensor, pointwise = tra(*pm), tra(*full)
    assert np.max(np.abs(tensor - pointwise)) <= 1e-13 * np.max(np.abs(pointwise))


def _light_corner(mu1, s1, s2, k_over_b):
    """A corner state of the light_points benchmark box; k = 1 for the hard core."""
    mp = MassPartition(mu1)
    k = 1.0 if k_over_b is None else k_over_b * AmplitudeModel.dirac_delta(1.0, mp).strength_scale
    return GaussianInState(k=k, sigma1=s1 * k, sigma2=s2 * k, masses=mp)


def _criterion_10_w5_state():
    k = find_resonances(CRITERION_10_MODEL, (0.01, 1.0), 1)[0] + 0.018
    return GaussianInState(k=k, sigma1=k / 5, sigma2=k / 10, masses=HEAVY2)


REFLECTED_GRID_STATES = {
    **{
        f"corner-mu{mu1}-s{s1}-{s2}-kb{kb}": (_light_corner, (mu1, s1, s2, kb))
        for mu1 in (0.1, 0.9)
        for s1, s2 in ((0.3, 0.05), (0.05, 0.3))
        for kb in (None, 0.3, 3.0)
    },
    "criterion-10-w5": (_criterion_10_w5_state, ()),
    "equal-masses": (make_state, (0.5, 1.0, 0.1, 0.2)),
    # positions of order 1/k: the phase a1 p1' + a2 p2' stays below 1.5 rad on
    # the window; the two forms round it differently, by about eps times the
    # phase, so far larger positions would need a wider tolerance
    "positions": (make_state, (0.3, 1.0, 0.1, 0.2, 0.4, -0.3)),
}


@pytest.mark.parametrize("case", REFLECTED_GRID_STATES)
def test_reflected_in_on_a_tensor_grid_matches_pointwise_evaluation(case):
    make, args = REFLECTED_GRID_STATES[case]
    st = make(*args)
    grid = mode_grid(st, Mode.REFLECTED, (256, 128))
    p1 = axis_nodes(grid.n1, grid.window1)[0][:, None]
    p2 = axis_nodes(grid.n2, grid.window2)[0][None, :]
    full = PairMomentum(*np.broadcast_arrays(p1, p2))
    tensor = _eval_reflected_in(st, PairMomentum(p1, p2))
    pointwise = eval_reflected_in(st, full)
    assert np.all(np.isfinite(tensor))
    # a sample that underflows pointwise is an exact zero here as well; six of
    # the corners underflow at the window edges, through subnormal samples
    zero = pointwise == 0.0
    np.testing.assert_array_equal(tensor == 0.0, zero)
    np.testing.assert_allclose(tensor[~zero], pointwise[~zero], rtol=1e-15, atol=0.0)
    # the reflected in-mode takes this route on tensor grids
    mode = ModeWavefunction(Mode.REFLECTED_IN, st)
    assert np.array_equal(mode(p1, p2), tensor)


SHAPE_STATE = make_state(mu1=0.2, s1=0.2, s2=0.1, a1=0.4, a2=-0.3)
SHAPE_MODELS = {
    "delta": AmplitudeModel.dirac_delta(6.25, HEAVY2),  # b = k
    "double_delta": CRITERION_10_MODEL,
    "hard_core": AmplitudeModel.hard_core(HEAVY2),
}


@pytest.mark.parametrize("shape", [(64, 32), (256, 128)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", SHAPE_MODELS)
def test_a_mode_gives_the_same_bits_whatever_the_array_shape(kind, mode, shape):
    # 64x32 complex samples lie below numpy's 256 KiB temporary-elision
    # threshold, 256x128 above it
    st = SHAPE_STATE
    fn = ModeWavefunction(mode, st, SHAPE_MODELS[kind])
    grid = joint_grid(st, shape) if mode is Mode.OUT else mode_grid(st, mode, shape)
    p1 = axis_nodes(grid.n1, grid.window1)[0][:, None]
    p2 = axis_nodes(grid.n2, grid.window2)[0][None, :]
    tensor = np.asarray(fn(p1, p2), dtype=complex)
    full = np.asarray(fn(*np.broadcast_arrays(p1, p2)), dtype=complex)
    assert np.array_equal(tensor.view(np.uint64), full.view(np.uint64))
