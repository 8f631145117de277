import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from scatter_entangle.amplitudes import (
    AmplitudeModel,
    AmplitudePair,
    PotentialKind,
    delta_amplitudes,
    double_delta_amplitudes,
    find_resonances,
    hardcore_amplitudes,
    unitarity_residual,
)
from scatter_entangle.kinematics import MassPartition
from scatter_entangle.wavefunction import GaussianInState, Mode, ModeWavefunction

MP = MassPartition(0.2)  # mu_red = 0.16


def test_hardcore_values():
    t, r = hardcore_amplitudes(1.3)
    assert t == 0.0
    assert r == -1.0
    t_arr, r_arr = hardcore_amplitudes(np.array([0.1, 2.0, 30.0]))
    np.testing.assert_array_equal(t_arr, 0.0)
    np.testing.assert_array_equal(r_arr, -1.0)


def test_positive_momentum_required():
    for fn in (hardcore_amplitudes, lambda q: delta_amplitudes(q, 1.0, MP)):
        with pytest.raises(ValueError):
            fn(0.0)
        with pytest.raises(ValueError):
            fn(np.array([1.0, -0.5]))


def test_delta_balanced_point():
    # x = q/(mu_red*alpha) = 1 splits the flux evenly
    b = MP.mu_red * 2.0
    t, r = delta_amplitudes(b, alpha=2.0, mp=MP)
    assert abs(t) ** 2 == pytest.approx(0.5, rel=1e-14)
    assert abs(r) ** 2 == pytest.approx(0.5, rel=1e-14)
    assert isinstance(t, complex)


def test_delta_closed_form_and_sum_rule():
    q = np.linspace(0.01, 8.0, 500)
    alpha = 1.7
    t, r = delta_amplitudes(q, alpha, MP)
    x = q / (MP.mu_red * alpha)
    np.testing.assert_allclose(r, 1j / (x - 1j), rtol=1e-15)
    np.testing.assert_allclose(t, 1.0 + r, rtol=1e-15)
    assert np.max(unitarity_residual(delta_amplitudes(q, alpha, MP))) < 1e-14


def test_delta_limits():
    t_hi, _ = delta_amplitudes(1e4 * MP.mu_red, 1.0, MP)
    assert abs(t_hi) ** 2 > 1.0 - 1e-6
    _, r_lo = delta_amplitudes(1e-5 * MP.mu_red, 1.0, MP)
    assert abs(r_lo) ** 2 > 1.0 - 1e-8


def test_delta_rejects_non_positive_strength():
    with pytest.raises(ValueError):
        delta_amplitudes(1.0, 0.0, MP)


def test_masses_enter_through_reduced_mass_only():
    other = MassPartition(0.5, M=0.64)  # same mu_red = 0.16
    q = np.linspace(0.05, 3.0, 50)
    t1, r1 = delta_amplitudes(q, 1.3, MP)
    t2, r2 = delta_amplitudes(q, 1.3, other)
    np.testing.assert_allclose(t1, t2, rtol=1e-15)
    np.testing.assert_allclose(r1, r2, rtol=1e-15)


@pytest.mark.parametrize("x", [0.7, -2.3, 13.0])
def test_point_scatterer_off_origin_is_a_shifted_delta(x):
    # a one-link chain, checked against the closed form: moving the delta to
    # x keeps t and multiplies r by exp(-2iqx)
    q = np.linspace(0.02, 5.0, 200)
    model = AmplitudeModel.composite([(0.9, x)], MP)
    assert model.kind is PotentialKind.COMPOSITE
    t_chain, r_chain = model.amplitudes(q)
    t_d, r_d = delta_amplitudes(q, 0.9, MP)
    np.testing.assert_allclose(t_chain, t_d, atol=1e-14)
    np.testing.assert_allclose(r_chain, r_d * np.exp(-2j * q * x), atol=1e-14)


def test_point_scatterer_at_origin_matches_delta():
    q = np.linspace(0.02, 5.0, 200)
    chain = AmplitudeModel.composite([(0.9, 0.0)], MP)
    delta = AmplitudeModel.dirac_delta(0.9, MP)
    assert chain == delta
    assert chain.kind is PotentialKind.DIRAC_DELTA
    for got, want in zip(chain.amplitudes(q), delta_amplitudes(q, 0.9, MP)):
        np.testing.assert_array_equal(got, want)


def test_zero_strength_gives_identity_matrix():
    t, r = AmplitudeModel.composite([(0.0, 2.0)], MP).amplitudes(1.1)
    assert t == 1.0
    assert r == 0.0


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(1e-3, 50.0),
    alpha=st.floats(1e-3, 50.0),
    position=st.floats(-20.0, 20.0),
)
def test_single_scatterer_is_unitary(q, alpha, position):
    pair = AmplitudeModel.composite([(alpha, position)], MP).amplitudes(q)
    assert unitarity_residual(pair) < 1e-12


def test_two_half_scatterers_at_same_point_merge():
    q = np.linspace(0.05, 4.0, 100)
    t_two, r_two = AmplitudeModel.composite([(0.65, 0.0)] * 2, MP).amplitudes(q)
    t_one, r_one = AmplitudeModel.composite([(1.3, 0.0)], MP).amplitudes(q)
    np.testing.assert_allclose(t_two, t_one, atol=1e-12)
    np.testing.assert_allclose(r_two, r_one, atol=1e-12)


def test_double_delta_collapses_onto_single_delta():
    # separation -> 0 with strength alpha each acts like one delta of 2*alpha
    q = np.linspace(0.05, 3.0, 60)
    t_dd, r_dd = double_delta_amplitudes(q, 0.7, 1e-9, MP)
    t_d, r_d = delta_amplitudes(q, 1.4, MP)
    np.testing.assert_allclose(t_dd, t_d, atol=1e-7)
    np.testing.assert_allclose(r_dd, r_d, atol=1e-7)


def test_double_delta_transmission_modulus_closed_form():
    # |t| for two deltas at +-a: t = (q^2/b^2) / ((e^{4iaq} - 1) + 2iq/b + q^2/b^2)
    rng = np.random.default_rng(5)
    q = rng.uniform(0.01, 3.0, 400)
    alpha, a = 1.9, 2.3
    b = MP.mu_red * alpha
    t, r = double_delta_amplitudes(q, alpha, a, MP)
    t_ref = (q**2 / b**2) / ((np.exp(4j * a * q) - 1.0) + 2j * q / b + q**2 / b**2)
    np.testing.assert_allclose(np.abs(t), np.abs(t_ref), atol=1e-12)
    assert np.max(unitarity_residual(AmplitudePair(t, r))) < 1e-12


def test_double_delta_reflection_is_not_t_minus_one():
    # the single-scatterer shortcut r = t - 1 breaks unitarity here
    q = np.linspace(0.05, 2.0, 200)
    t, r = double_delta_amplitudes(q, 1.9, 2.3, MP)
    shortcut = np.abs(np.abs(t) ** 2 + np.abs(t - 1.0) ** 2 - 1.0)
    assert np.max(shortcut) > 0.1
    assert np.max(unitarity_residual(AmplitudePair(t, r))) < 1e-12


def test_double_delta_high_momentum_transparent():
    t, _ = double_delta_amplitudes(1e5 * MP.mu_red, 1.0, 1.0, MP)
    assert abs(t) ** 2 > 1.0 - 1e-6


def test_model_dispatch_matches_free_functions():
    q = np.linspace(0.1, 2.0, 30)
    m = AmplitudeModel.double_dirac_delta(1.1, 0.8, MP)
    t_m, r_m = m.amplitudes(q)
    t_f, r_f = double_delta_amplitudes(q, 1.1, 0.8, MP)
    np.testing.assert_array_equal(t_m, t_f)
    np.testing.assert_array_equal(r_m, r_f)
    assert m.strength_scale == pytest.approx(0.16 * 1.1, rel=1e-15)


@pytest.mark.parametrize(
    "model, alpha",
    [
        (AmplitudeModel.hard_core(MP), 0.0),
        (AmplitudeModel.composite([(3.0, -7.0), (5.0, 1.5)], MP), 0.0),
        (AmplitudeModel.dirac_delta(-2.0, MP), 2.0),
        (AmplitudeModel.double_dirac_delta(-1.1, 0.8, MP), 1.1),
    ],
    ids=["hard_core", "composite", "delta", "double_delta"],
)
def test_alpha_and_strength_scale_are_zero_without_a_delta_strength(model, alpha):
    assert model.alpha == alpha
    assert model.strength_scale == MP.mu_red * alpha


def test_model_normalizes_attractive_strength():
    m = AmplitudeModel.dirac_delta(-2.0, MP)
    assert m.alpha == 2.0
    with pytest.raises(ValueError):
        AmplitudeModel.dirac_delta(0.0, MP)
    with pytest.raises(ValueError):
        AmplitudeModel.double_dirac_delta(1.0, 0.0, MP)
    with pytest.raises(ValueError):
        AmplitudeModel.composite([], MP)


@pytest.mark.parametrize(
    "scatterers, kind",
    [
        ((), PotentialKind.HARD_CORE),
        (((2.0, 0.0),), PotentialKind.DIRAC_DELTA),
        (((-2.0, -0.0),), PotentialKind.DIRAC_DELTA),  # attractive, signed zero
        (((1.0, 2.0),), PotentialKind.COMPOSITE),  # off the origin
        (((0.0, 0.0),), PotentialKind.COMPOSITE),  # zero strength
        (((1.3, 0.9), (-1.3, -0.9)), PotentialKind.DOUBLE_DIRAC_DELTA),
        (((1.0, 0.0), (1.0, 1.0)), PotentialKind.COMPOSITE),
        (((1.0, -0.5), (2.0, 0.5)), PotentialKind.COMPOSITE),  # unequal
        (((1.0, -0.5), (1.0, 0.7)), PotentialKind.COMPOSITE),  # off-center
        (((1.0, 0.0), (1.0, 0.0)), PotentialKind.COMPOSITE),  # a = 0
        (((0.0, -0.5), (0.0, 0.5)), PotentialKind.COMPOSITE),  # zero strengths
        (((1.0, -0.5), (1.0, 0.0), (1.0, 0.5)), PotentialKind.COMPOSITE),
    ],
)
def test_layout_decides_the_kind(scatterers, kind):
    model = AmplitudeModel(MP, scatterers)
    assert model.kind is kind
    if scatterers:
        assert model == AmplitudeModel.composite(scatterers, MP)


def test_direct_layouts_equal_the_named_potentials():
    assert AmplitudeModel(MP) == AmplitudeModel.hard_core(MP)
    assert AmplitudeModel(MP, ((-2.0, 0.0),)) == AmplitudeModel.dirac_delta(2.0, MP)
    double = AmplitudeModel(MP, ((1.3, 0.9), (-1.3, -0.9)))
    assert double == AmplitudeModel.double_dirac_delta(1.3, 0.9, MP)


def test_composite_model_orders_scatterers_and_is_unitary():
    m = AmplitudeModel.composite([(0.4, 1.5), (0.7, -2.0)], MP)
    assert m.scatterers == ((0.7, -2.0), (0.4, 1.5))
    q = np.linspace(0.05, 3.0, 100)
    assert np.max(unitarity_residual(m.amplitudes(q))) < 1e-12


def test_composite_double_matches_dedicated_kind():
    q = np.linspace(0.05, 3.0, 64)
    dd = AmplitudeModel.double_dirac_delta(1.3, 0.9, MP)
    cc = AmplitudeModel.composite([(1.3, 0.9), (-1.3, -0.9)], MP)
    assert cc == dd
    for got, want in zip(cc.amplitudes(q), dd.amplitudes(q)):
        np.testing.assert_array_equal(got, want)
    roots = find_resonances(cc, (0.05, 3.0))
    assert len(roots) > 0
    np.testing.assert_array_equal(roots, find_resonances(dd, (0.05, 3.0)))


class TestResonances:
    def setup_method(self):
        self.b = 1.0
        self.mp = MassPartition(0.2)
        alpha = self.b / self.mp.mu_red
        self.model = AmplitudeModel.double_dirac_delta(alpha, 10.0 / self.b, self.mp)

    def test_first_root_matches_independent_solver(self):
        # oracle: root of sin(20u) + u cos(20u) bracketed on the first branch
        u_star = brentq(
            lambda u: np.sin(20 * u) + u * np.cos(20 * u),
            np.pi / 40 + 1e-9,
            np.pi / 20 - 1e-12,
            xtol=1e-15,
        )
        roots = find_resonances(self.model, (0.01, 1.0), count=1)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(u_star * self.b, abs=1e-12)

    def test_roots_transmit_perfectly(self):
        roots = find_resonances(self.model, (0.01, 2.0), count=6)
        assert len(roots) >= 4
        t, r = self.model.amplitudes(roots)
        assert np.max(np.abs(np.abs(t) ** 2 - 1.0)) < 1e-10
        assert np.max(np.abs(r) ** 2) < 1e-10
        assert np.all(np.diff(roots) > 0)

    def test_transmission_dips_between_roots(self):
        roots = find_resonances(self.model, (0.01, 1.0), count=3)
        mids = 0.5 * (roots[:-1] + roots[1:])
        t_mid, _ = self.model.amplitudes(mids)
        assert np.all(np.abs(t_mid) ** 2 < 0.999)

    def test_count_and_range_respected(self):
        roots = find_resonances(self.model, (0.01, 2.0), count=2)
        assert len(roots) == 2
        lo, hi = 0.01, 0.3
        inside = find_resonances(self.model, (lo, hi), count=10)
        assert np.all((inside > lo) & (inside < hi))

    def test_first_criterion_10_root_is_pinned_to_the_bit(self):
        # criterion 10, tests/tolerance_audit.py and the bench's q_star read it
        roots = find_resonances(self.model, (0.01, 1.0), count=1)
        assert roots[0] == 0.14965214613535138

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            find_resonances(self.model, (1.0, 0.5))
        with pytest.raises(ValueError):
            find_resonances(self.model, (0.1, 1.0), count=0)


ASYMMETRIC_PAIR = AmplitudeModel.composite([(1.0, -2.0), (3.0, 2.0)], MP)


@pytest.mark.parametrize(
    "model",
    [AmplitudeModel.hard_core(MP), AmplitudeModel.dirac_delta(2.0, MP), ASYMMETRIC_PAIR],
    ids=["hard_core", "delta", "asymmetric_pair"],
)
def test_chains_that_never_transmit_perfectly_have_no_resonances(model):
    roots = find_resonances(model, (0.05, 3.0), count=20)
    assert roots.shape == (0,)
    assert roots.dtype == float


def test_the_transmission_filter_rejects_an_asymmetric_chains_crossings():
    # Im(r conj t) of unequal deltas changes sign, but |t|^2 stays below 0.99
    q = np.linspace(0.05, 3.0, 4000)
    t, r = ASYMMETRIC_PAIR.amplitudes(q)
    f = (r * np.conj(t)).imag
    assert np.any(np.sign(f[:-1]) * np.sign(f[1:]) < 0)
    assert np.max(np.abs(t) ** 2) < 0.99


def test_a_symmetric_three_scatterer_chain_transmits_perfectly_at_its_roots():
    model = AmplitudeModel.composite([(2.0, -3.0), (1.5, 0.0), (2.0, 3.0)], MP)
    roots = find_resonances(model, (0.05, 3.0), count=20)
    assert len(roots) == 6
    assert np.all(np.diff(roots) > 0)
    assert np.all((roots > 0.05) & (roots < 3.0))
    assert np.max(np.abs(model.amplitudes(roots).r) ** 2) < 1e-10


def _plain_chain(q, scatterers, mp):
    """The chain as a plain product of the second row, with fresh temporaries."""
    m21, m22 = 0.0, 1.0
    for alpha, x in reversed(scatterers):
        g = 1j * ((mp.mu_red * alpha) / q)
        e = np.exp(2j * q * x)
        m21, m22 = m21 + g * (m21 - m22 * np.conj(e)), m22 + g * (m21 * e - m22)
    t = 1.0 / m22
    return t, -m21 * t


CHAINS = {
    "double_delta": AmplitudeModel.double_dirac_delta(6.25, 10.0, MP),  # a*b = 10
    "composite": AmplitudeModel.composite([(3, -7), (5, 1.5), (2, 4)], MP),
}


def _matrix_chain(q, scatterers, mp):
    """(t, r) from the full 2x2 transfer matrices, multiplied out at each q."""
    m = np.broadcast_to(np.eye(2, dtype=complex), q.shape + (2, 2))
    for alpha, x in scatterers:
        g = 1j * mp.mu_red * alpha / q
        e = np.exp(2j * q * x)
        n = np.stack([np.stack([1 + g, g * e], -1), np.stack([-g * np.conj(e), 1 - g], -1)], -2)
        m = n @ m  # the rightmost scatterer acts last
    return 1.0 / m[..., 1, 1], -m[..., 1, 0] / m[..., 1, 1]


@pytest.mark.parametrize("name", CHAINS)
def test_chain_matches_the_full_transfer_matrix_product(name):
    model = CHAINS[name]
    q = np.random.default_rng(7).uniform(1e-4, 5.0, 10**4)
    t, r = model.amplitudes(q)
    t_ref, r_ref = _matrix_chain(q, model.scatterers, MP)
    # toward q = 1e-4 the links' g = i b / q grows to 1e4, and the second row
    # and the full product round apart by up to 1.4e-12
    np.testing.assert_allclose(t, t_ref, rtol=0, atol=1e-11)
    np.testing.assert_allclose(r, r_ref, rtol=0, atol=1e-11)


@pytest.mark.parametrize("name", CHAINS)
def test_chain_keeps_the_type_and_shape_of_q(name):
    model = CHAINS[name]
    # numpy scalars round differently from array loops, so a scalar is held
    # to the plain product on a 0-d array, not to a one-element array
    plain = _plain_chain(np.array(0.7), model.scatterers, MP)
    for q in (0.7, np.float64(0.7), np.array(0.7)):
        t, r = model.amplitudes(q)
        assert type(t) is complex and type(r) is complex
        assert (t, r) == plain
    for q in (np.empty(0), np.full((3, 4), 0.7)):
        t, r = model.amplitudes(q)
        assert t.shape == r.shape == q.shape
        assert t.dtype == r.dtype == complex
    # a mode takes them at the relative momenta of a tensor grid, at |q|
    mode = ModeWavefunction(Mode.TRANSMITTED, GaussianInState(1.0, 0.2, 0.1, MP), model)
    q = 0.8 * np.linspace(0.5, 1.5, 5)[:, None] - 0.2 * np.linspace(-1.5, 1.5, 3)[None, :]
    t, r = mode.amplitudes_at(q)
    assert t.shape == r.shape == (5, 3)
    assert t.dtype == r.dtype == complex
    assert np.array_equal(t, model.amplitudes(np.abs(q)).t)
