import json
import math

import numpy as np
import pytest
from scipy.special import erf

from scatter_entangle.amplitudes import AmplitudeModel
from scatter_entangle.analytic import (
    reflected_gaussian_purity,
    reflected_gaussian_purity_mu_c,
)
from scatter_entangle.kinematics import MassPartition
from scatter_entangle.purity import (
    AxisWindow,
    GridSpec,
    ZeroWavefunctionError,
    check_ladder,
    _leggauss,
    discretize,
    joint_grid,
    mode_grid,
    purity_adaptive,
    purity_from_matrix,
    purity_out,
    purity_pq_adaptive,
)
from scatter_entangle.wavefunction import (
    GaussianInState,
    Mode,
    ModeWavefunction,
)


def make_state(mu1=0.5, k=1.0, s1=0.1, s2=0.2):
    return GaussianInState(k=k, sigma1=s1, sigma2=s2, masses=MassPartition(mu1))


def square_grid(n, halfwidth, center=0.0):
    w = AxisWindow(center, halfwidth)
    return GridSpec(n1=n, n2=n, window1=w, window2=w)


def brute_force_purity(a):
    """O(N^4) contraction of the purity integral, no spectral shortcut."""
    num = np.einsum("ij,kj,kl,il", a, np.conj(a), a, np.conj(a))
    den = np.sum(np.abs(a) ** 2) ** 2
    return float(num.real) / float(den)


def test_separable_state_is_pure():
    # non-Gaussian but rank one: Lorentzian times modulated Gaussian
    fn = lambda P1, P2: (1.0 / (1.0 + P1**2)) * np.exp(-(P2**2)) * np.cos(P2)
    purity, spectrum = purity_from_matrix(discretize(fn, square_grid(128, 12.0)))
    assert purity == pytest.approx(1.0, abs=1e-10)
    assert spectrum[0] == pytest.approx(1.0, abs=1e-10)


def test_two_disjoint_lobes_halve_the_purity():
    c, w = 1.0, 0.02

    def lobes(P1, P2):
        gp = np.exp(-((P1 - c) ** 2) / (4 * w**2)) * np.exp(
            -((P2 - c) ** 2) / (4 * w**2)
        )
        gm = np.exp(-((P1 + c) ** 2) / (4 * w**2)) * np.exp(
            -((P2 + c) ** 2) / (4 * w**2)
        )
        return gp + gm

    purity, spectrum = purity_from_matrix(discretize(lobes, square_grid(512, 1.5)))
    assert purity == pytest.approx(0.5, abs=1e-6)
    assert spectrum[0] == pytest.approx(0.5, abs=1e-6)
    assert spectrum[1] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize(
    "fn",
    [
        lambda P1, P2: np.exp(-((P1 - 1) ** 2) / 0.04 - (P2 + 1) ** 2 / 0.16),
        lambda P1, P2: np.exp(-(P1**2) - P2**2 + 0.7j * P1 * P2),
        lambda P1, P2: np.exp(-(P1**2) - P2**2) * (P1 + 1j * P2),
        # rank 2: roundoff leaves eigenvalues of either sign around zero
        lambda P1, P2: np.exp(-(P1**2) - P2**2) * (1.0 + P1 * P2),
    ],
)
def test_gram_route_agrees_with_spectral_route(fn):
    wam = discretize(fn, square_grid(64, 6.0))
    purity, spectrum = purity_from_matrix(wam)
    s2 = np.linalg.svd(wam.a, compute_uv=False) ** 2
    assert purity == pytest.approx(np.sum(s2**2) / np.sum(s2) ** 2, rel=1e-12)
    np.testing.assert_allclose(spectrum, s2 / np.sum(s2), rtol=0, atol=1e-14)
    assert np.all(spectrum >= 0.0)
    assert np.all(np.diff(spectrum) <= 0.0)
    assert spectrum.sum() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n", [32, 64, 128, 256, 512, 1024, 2048])
def test_nodes_equal_numpy_leggauss_bitwise(n):
    # 4096 is left out: numpy's dense eigensolve takes about 4 s there
    x, w = _leggauss(n)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, x_np)
    assert np.array_equal(w, w_np)


def test_brute_force_contraction_agrees():
    st = make_state(mu1=0.2)
    wam = discretize(st, mode_grid(st, Mode.IN, 32))
    purity, _ = purity_from_matrix(wam)
    assert brute_force_purity(wam.a) == pytest.approx(purity, rel=1e-10)


def test_zero_wavefunction_is_rejected():
    fn = lambda P1, P2: np.zeros(np.broadcast(P1, P2).shape)
    wam = discretize(fn, square_grid(32, 1.0))
    with pytest.raises(ZeroWavefunctionError):
        purity_from_matrix(wam)


def test_non_finite_samples_abort_with_location():
    def fn(P1, P2):
        vals = np.ones(np.broadcast(P1, P2).shape, dtype=complex)
        vals[(P1 > 0.5) & (P2 > 0.5)] = np.nan
        return vals

    with pytest.raises(FloatingPointError, match="non-finite"):
        discretize(fn, square_grid(32, 1.0))


def test_grid_validation():
    with pytest.raises(ValueError):
        AxisWindow(0.0, 0.0)
    with pytest.raises(ValueError):
        square_grid(48, 1.0)  # not a power of two
    with pytest.raises(ValueError):
        square_grid(16, 1.0)  # below 32
    st = make_state()
    with pytest.raises(ValueError):
        purity_adaptive(st, mode_grid(st, Mode.IN, 64), rel_tol=1e-11)
    with pytest.raises(ValueError):
        purity_adaptive(st, mode_grid(st, Mode.IN, 64), n_cap=32)
    # pairs come as tuples from Python and as lists from JSON configs
    check_ladder(1e-6, [64, 32], (256, 128))
    with pytest.raises(ValueError, match="n_cap for n2 must be a power of two"):
        check_ladder(1e-6, 64, [1024, 96])
    with pytest.raises(ValueError, match="n_cap for n2 = 64 below base_n = 128"):
        check_ladder(1e-6, [64, 128], (1024, 64))
    with pytest.raises(ValueError, match="overlap_n for n1 must be a power of two"):
        check_ladder(1e-6, 64, 1024, 48)
    model = AmplitudeModel.dirac_delta(1.0, st.masses)
    with pytest.raises(ValueError, match="overlap_n for n1 must be a power of two"):
        purity_out(st, model, overlap_n=48)


def _raise_on_constant(name):
    raise ValueError(f"{name} is not JSON")


# every PurityReport field the spectrum switch must leave bit for bit alone;
# repr round-trips a float exactly and prints NaN, so equal reprs are equal bits
UNTOUCHED = (
    "purity",
    "purity_tra",
    "purity_ref",
    "norm_sq",
    "refinements",
    "grid_n",
    "refinement_error",
    "converged",
    "oob_weight",
    "overlap",
)


def assert_same_but_spectrum(with_spec, without):
    for name in UNTOUCHED:
        assert repr(getattr(without, name)) == repr(getattr(with_spec, name)), name
    assert with_spec.schmidt_spectrum is not None
    assert without.schmidt_spectrum is None
    d = json.loads(json.dumps(without.as_dict()), parse_constant=_raise_on_constant)
    for rep in [d] + [d[b] for b in ("tra", "ref") if b in d]:
        assert rep["schmidt_spectrum"] is None
        assert rep["schmidt_rank_reported"] is None
        assert rep["schmidt_rank_full"] is None


def test_purity_out_without_spectrum_changes_nothing_else():
    st = make_state(mu1=0.2)
    model = AmplitudeModel.double_dirac_delta(6.25, 2.0, st.masses)
    kw = dict(rel_tol=1e-6, base_n=32, n_cap=256, overlap_n=64)
    with_spec = purity_out(st, model, **kw)
    without = purity_out(st, model, **kw, spectrum=False)
    assert len(with_spec.refinements) > 2
    assert_same_but_spectrum(with_spec, without)
    for branch in ("tra_report", "ref_report"):
        assert_same_but_spectrum(getattr(with_spec, branch), getattr(without, branch))


@pytest.mark.parametrize("n_cap", [256, 32])  # 32: one level, NaN refinement error
def test_purity_adaptive_without_spectrum_changes_nothing_else(n_cap):
    st = make_state(mu1=0.2)
    fn = ModeWavefunction(Mode.REFLECTED, st, AmplitudeModel.dirac_delta(6.25, st.masses))
    grid = mode_grid(st, Mode.REFLECTED, 32)
    with_spec = purity_adaptive(fn, grid, 1e-6, n_cap)
    without = purity_adaptive(fn, grid, 1e-6, n_cap, spectrum=False)
    assert_same_but_spectrum(with_spec, without)


def test_schmidt_spectrum_is_a_distribution():
    st = make_state(mu1=0.2)
    model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
    rep = purity_out(st, model, rel_tol=1e-6)
    spec = rep.schmidt_spectrum
    assert np.all(spec >= 0.0)
    assert np.all(np.diff(spec) <= 0.0)
    assert np.sum(spec) == pytest.approx(1.0, abs=1e-10)
    assert np.sum(spec**2) == pytest.approx(rep.purity, abs=1e-12)


@pytest.mark.parametrize(
    "mu1,c,expected",
    [
        (0.2, 0.5, 0.485642931178632),
        (0.1, 4.0, 4.0 / math.sqrt(1.28 * 13.48)),
    ],
)
def test_reflected_gaussian_quadrature_hits_closed_form(mu1, c, expected):
    s1 = 0.05
    st = make_state(mu1=mu1, s1=s1, s2=c * s1)
    refl = ModeWavefunction(Mode.REFLECTED_IN, st)
    rep = purity_adaptive(refl, mode_grid(st, Mode.REFLECTED_IN, 64), rel_tol=1e-8)
    assert rep.converged
    assert rep.purity == pytest.approx(expected, abs=1e-7)
    assert rep.purity == pytest.approx(
        reflected_gaussian_purity(st.masses, st.sigma1, st.sigma2), abs=1e-7
    )


def test_adaptive_traces_its_refinements():
    st = make_state(mu1=0.2)
    rep = purity_adaptive(st, mode_grid(st, Mode.IN, 64), rel_tol=1e-8)
    assert rep.converged
    assert len(rep.refinements) >= 2
    assert rep.refinements[0][:2] == (64, 64)
    assert rep.grid_n == rep.refinements[-1][:2]
    assert rep.purity == rep.refinements[-1][2]
    assert rep.norm_sq == pytest.approx(1.0, abs=1e-8)


def test_cap_hit_reports_non_convergence():
    st = make_state(mu1=0.2)
    rep = purity_adaptive(st, mode_grid(st, Mode.IN, 32), rel_tol=1e-8, n_cap=32)
    assert not rep.converged
    assert math.isnan(rep.refinement_error)
    assert rep.refinements == ((32, 32, rep.purity),)


def test_window_truncation_matches_gaussian_tail():
    # halving an +-8 sigma window to +-4 sigma cuts erfc-sized corners: the
    # captured norm drops by 1 - erf(4/sqrt(2))^2 ~ 1.3e-4 for a product state
    st = make_state(mu1=0.5, s1=0.1, s2=0.1)
    n8 = discretize(st, mode_grid(st, Mode.IN, 512, nsig=8.0)).norm_sq
    n4 = discretize(st, mode_grid(st, Mode.IN, 512, nsig=4.0)).norm_sq
    expected_drop = 1.0 - erf(4.0 / math.sqrt(2.0)) ** 2
    assert n8 == pytest.approx(1.0, abs=1e-9)
    assert (n8 - n4) == pytest.approx(expected_drop, rel=0.02)
    assert abs(n8 - n4) < 2e-4


def test_initial_positions_do_not_change_purity():
    grid = mode_grid(make_state(mu1=0.3), Mode.IN, 128)
    base = GaussianInState(1.0, 0.1, 0.2, MassPartition(0.3))
    moved = GaussianInState(1.0, 0.1, 0.2, MassPartition(0.3), a1=5.0, a2=-3.0)
    p0, _ = purity_from_matrix(discretize(base, grid))
    p1, _ = purity_from_matrix(discretize(moved, grid))
    assert p1 == pytest.approx(p0, rel=1e-12)


def test_mode_split_is_additive_and_orthogonal():
    st = make_state(mu1=0.2)
    model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
    rep = purity_out(st, model, rel_tol=1e-7)
    assert rep.converged
    assert rep.overlap < 1e-8
    assert rep.norm_sq == pytest.approx(1.0, abs=1e-6)
    assert rep.purity == pytest.approx(rep.purity_tra + rep.purity_ref, rel=1e-14)

    out = ModeWavefunction(Mode.OUT, st, model)
    joint = purity_adaptive(out, joint_grid(st, 256), rel_tol=1e-7, n_cap=2048)
    assert joint.converged
    assert abs(joint.purity - rep.purity) < 1e-5


def test_hard_core_out_is_a_pure_reflection():
    st = make_state(mu1=0.3, s1=0.06, s2=0.102)
    rep = purity_out(st, AmplitudeModel.hard_core(st.masses), rel_tol=1e-8)
    assert rep.tra_report is None
    assert rep.purity_tra == 0.0
    assert rep.purity == pytest.approx(
        reflected_gaussian_purity(st.masses, st.sigma1, st.sigma2), abs=1e-6
    )


def total_relative_purity(mu1, s1, s2):
    """Closed form for the (total, relative) split of the product Gaussian."""
    mu2 = 1.0 - mu1
    q11 = mu1**2 / s1**2 + mu2**2 / s2**2
    q22 = 1.0 / s1**2 + 1.0 / s2**2
    q12 = mu1 / s1**2 - mu2 / s2**2
    det = q11 * q22 - q12**2
    return math.sqrt(det / (q11 * q22))


class TestTotalRelativeSplit:
    def test_equal_mass_equal_width_factorizes(self):
        st = make_state(mu1=0.5, s1=0.1, s2=0.1)
        rep = purity_pq_adaptive(st, rel_tol=1e-8)
        assert rep.purity == pytest.approx(1.0, abs=1e-10)

    def test_matched_width_ratio_factorizes(self):
        st = make_state(mu1=0.2, s1=0.05, s2=0.1)  # c^2 = mu2/mu1
        rep = purity_pq_adaptive(st, rel_tol=1e-8)
        assert rep.purity == pytest.approx(1.0, abs=1e-10)

    def test_generic_state_matches_closed_form(self):
        st = make_state(mu1=0.2, s1=0.1, s2=0.1)
        rep = purity_pq_adaptive(st, rel_tol=1e-8)
        assert rep.converged
        oracle = total_relative_purity(0.2, 0.1, 0.1)
        assert oracle == pytest.approx(math.sqrt(10000.0 / 13600.0), rel=1e-12)
        assert rep.purity == pytest.approx(oracle, abs=1e-6)

    def test_scattering_leaves_the_split_untouched(self):
        st = make_state(mu1=0.2, s1=0.1, s2=0.2)
        model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
        rep_in = purity_pq_adaptive(st, rel_tol=1e-7)
        rep_out = purity_pq_adaptive(st, model, rel_tol=1e-7, n_cap=2048)
        assert rep_in.converged and rep_out.converged
        assert abs(rep_out.purity - rep_in.purity) < 1e-6


def test_numeric_scale_invariance():
    purities = []
    for s1 in (0.005, 0.05):
        st = make_state(mu1=0.25, s1=s1, s2=2.0 * s1)
        refl = ModeWavefunction(Mode.REFLECTED_IN, st)
        rep = purity_adaptive(refl, mode_grid(st, Mode.REFLECTED_IN, 64), rel_tol=1e-8)
        assert rep.converged
        purities.append(rep.purity)
    assert abs(purities[1] - purities[0]) / purities[0] < 1e-5
    # the closed form is exactly width-scale-free (sigma ratio exact in binary)
    assert reflected_gaussian_purity_mu_c(0.25, 2.0) == reflected_gaussian_purity(
        MassPartition(0.25), 0.005, 0.01
    )


def test_out_of_convention_weight_tracks_momentum_spread():
    narrow = make_state(mu1=0.5, s1=0.1, s2=0.1)
    rep = purity_adaptive(
        ModeWavefunction(Mode.IN, narrow), mode_grid(narrow, Mode.IN, 64), 1e-7
    )
    assert rep.oob_weight < 1e-9

    with pytest.warns(Warning):
        wide = make_state(mu1=0.5, s1=0.4, s2=0.4)
    rep_wide = purity_adaptive(
        ModeWavefunction(Mode.IN, wide), mode_grid(wide, Mode.IN, 64), 1e-7
    )
    assert 1e-6 < rep_wide.oob_weight < 1e-2
