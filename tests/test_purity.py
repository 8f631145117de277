import functools
import inspect
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from scatter_entangle import purity as purity_module
from scatter_entangle.amplitudes import AmplitudeModel, AmplitudePair, find_resonances
from scatter_entangle.analytic import (
    reflected_gaussian_purity,
    reflected_gaussian_purity_mu_c,
)
from scatter_entangle.kinematics import MassPartition, PairMomentum, reflect_momenta
from scatter_entangle.purity import (
    AxisWindow,
    GridSpec,
    PurityReport,
    ZeroWavefunctionError,
    check_ladder,
    axis_nodes,
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
    IncomingnessWarning,
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


def test_wrong_sample_shape_is_rejected():
    fn = lambda P1, P2: np.ones(np.broadcast(P1, P2).shape[0])  # one value per row
    with pytest.raises(ValueError, match=r"returned shape \(32,\), expected \(32, 32\)"):
        discretize(fn, square_grid(32, 1.0))


@pytest.mark.parametrize("purity", [0.0, -0.5, 1.5, float("nan")])
def test_purity_report_rejects_purity_outside_unit_interval(purity):
    with pytest.raises(ValueError, match="purity out of range"):
        PurityReport(purity, None, (32, 32), float("nan"), False, 1.0, ())


def test_non_finite_samples_abort_with_location():
    def fn(P1, P2):
        vals = np.ones(np.broadcast(P1, P2).shape, dtype=complex)
        vals[(P1 > 0.5) & (P2 > 0.5)] = np.nan
        return vals

    # 512^2 samples in 8 blocks of 64 rows: the NaNs begin in the seventh, at row 384
    grid = square_grid(512, 1.0)
    x, _ = axis_nodes(512, grid.window1)
    assert np.argmax(x > 0.5) == 384
    first = x[x > 0.5][0]
    count = np.count_nonzero(x > 0.5) ** 2
    with pytest.raises(FloatingPointError) as info:
        discretize(fn, grid)
    assert str(info.value) == (
        f"{count} non-finite samples on 512x512 grid, "
        f"first at (p1, p2) = ({first:.6g}, {first:.6g})"
    )


def one_block_samples(wavefn, grid, flush=True):
    """The whole grid sampled as one block, weighted, and flushed unless ``flush`` is
    false: the reference for blocking."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(purity_module, "_BLOCK_NODES", grid.n1 * grid.n2)
        if not flush:
            mp.setattr(purity_module, "_FLUSH_BELOW", 0.0)
        return discretize(wavefn, grid).a


BLOCK_MASSES = MassPartition(0.2)
BLOCK_DD = AmplitudeModel.double_dirac_delta(1.0 / BLOCK_MASSES.mu_red, 10.0, BLOCK_MASSES)
_K = find_resonances(BLOCK_DD, (0.01, 1.0), 1)[0] + 0.018
BLOCK_STATE = GaussianInState(k=_K, sigma1=_K / 5, sigma2=_K / 10, masses=BLOCK_MASSES)
BLOCK_MODELS = {
    "double_delta": BLOCK_DD,
    "composite": AmplitudeModel.composite([(3.0, -7.0), (5.0, 1.5), (2.0, 4.0)], BLOCK_MASSES),
    "delta": AmplitudeModel.dirac_delta(6.25, BLOCK_MASSES),
    "hard_core": AmplitudeModel.hard_core(BLOCK_MASSES),
}
# Grids of many blocks of 32 rows, of 32 such blocks, of one block and of
# blocks of only the 2-row floor (32768 nodes per row). Each model and
# branch meets a multi-block grid; the sizes are kept to what tier-1 affords.
BLOCK_CASES = [
    ("double_delta", (4096, 1024)),
    ("double_delta", (32, 32768)),
    ("composite", (1024, 1024)),
    ("delta", (1024, 1024)),
    ("hard_core", (1024, 1024)),
] + [(kind, (128, 64)) for kind in BLOCK_MODELS]


def _assert_blocking_keeps_the_bits(wavefn, grid):
    ref = one_block_samples(wavefn, grid)
    a = discretize(wavefn, grid).a
    assert a.shape == ref.shape
    assert np.array_equal(a.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("mode", [Mode.TRANSMITTED, Mode.REFLECTED], ids=lambda m: m.value)
@pytest.mark.parametrize(
    "kind, shape", BLOCK_CASES, ids=[f"{k}-{n1}x{n2}" for k, (n1, n2) in BLOCK_CASES]
)
def test_blocked_sampling_equals_one_block_bitwise(kind, shape, mode):
    fn = ModeWavefunction(mode, BLOCK_STATE, BLOCK_MODELS[kind])
    _assert_blocking_keeps_the_bits(fn, mode_grid(BLOCK_STATE, mode, shape))


@pytest.mark.parametrize("shape", [(1024, 1024), (128, 64)], ids="{0[0]}x{0[1]}".format)
def test_blocked_sampling_equals_one_block_bitwise_in_jacobi_coordinates(shape, monkeypatch):
    # the wave function of purity_pq_adaptive, called on full (P, Q) arrays;
    # the ladder is stubbed out to capture what it would sample
    ladder_args = []
    monkeypatch.setattr(purity_module, "purity_adaptive", lambda *a: ladder_args.append(a))
    purity_pq_adaptive(BLOCK_STATE, BLOCK_DD, base_n=shape)
    [(fn, grid, *_)] = ladder_args
    assert (grid.n1, grid.n2) == shape
    _assert_blocking_keeps_the_bits(fn, grid)


def _record_amplitude_calls(monkeypatch):
    """The shape of q at each amplitude call, in call order."""
    shapes = []
    real = AmplitudeModel.amplitudes

    def recording(self, q):
        shapes.append(np.shape(q))
        return real(self, q)

    monkeypatch.setattr(AmplitudeModel, "amplitudes", recording)
    return shapes


def _lattice_size(state, grid):
    """a (n1 - 1) + b (n2 - 1) + 1, for steps mu2 h1 : mu1 h2 = a : b in lowest terms."""
    mp = state.masses
    _, h1 = axis_nodes(grid.n1, grid.window1)
    _, h2 = axis_nodes(grid.n2, grid.window2)
    ratio = Fraction(mp.mu2 * h1 / (mp.mu1 * h2)).limit_denominator(10**4)
    assert abs(float(ratio) * mp.mu1 * h2 - mp.mu2 * h1) <= 1e-14 * mp.mu2 * h1
    return ratio.numerator * (grid.n1 - 1) + ratio.denominator * (grid.n2 - 1) + 1


LATTICE_SHAPES = [(64, 64), (128, 64), (1024, 256)]


@pytest.mark.parametrize("shape", LATTICE_SHAPES, ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize(
    "mode", [Mode.TRANSMITTED, Mode.REFLECTED, Mode.OUT], ids=lambda m: m.value
)
@pytest.mark.parametrize("kind", BLOCK_MODELS)
def test_lattice_samples_match_the_pointwise_mode(kind, mode, shape, monkeypatch):
    # criterion 10's w5 + 0.018 point; the out mode on its joint grid
    fn = ModeWavefunction(mode, BLOCK_STATE, BLOCK_MODELS[kind])
    grid = joint_grid(BLOCK_STATE, shape) if mode is Mode.OUT else mode_grid(BLOCK_STATE, mode, shape)
    calls = _record_amplitude_calls(monkeypatch)
    a = discretize(fn, grid).a
    assert calls == [(_lattice_size(BLOCK_STATE, grid),)]
    x1, h1 = axis_nodes(grid.n1, grid.window1)
    x2, h2 = axis_nodes(grid.n2, grid.window2)
    ref = math.sqrt(h1 * h2) * fn(x1[:, None], x2[None, :])
    assert np.max(np.abs(a - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_each_ladder_level_calls_the_amplitudes_once_on_its_lattice(monkeypatch):
    grids = _count_discretize(monkeypatch)
    calls = _record_amplitude_calls(monkeypatch)
    kw = dict(rel_tol=1e-5, base_n=(128, 64), n_cap=(1024, 512), spectrum=False)
    rep = purity_out(BLOCK_STATE, BLOCK_DD, **kw)
    assert len(grids) == len(rep.refinements) > 4
    # one call per level, then the overlap's 1,024 and the tails' 64 q nodes
    assert calls == [(_lattice_size(BLOCK_STATE, g),) for g in grids] + [(1024,), (64,)]


@pytest.mark.parametrize("case", ["hand-built", "narrow"])
def test_a_grid_without_a_small_lattice_is_sampled_pointwise(case, monkeypatch):
    # a hand-built grid whose steps have no small ratio, and a mode grid whose
    # p2 window is 1e4 times narrower than its p1 window, so that its lattice
    # would hold more momenta than its nodes: the mode is called on each block
    if case == "hand-built":
        state = BLOCK_STATE
        grid = GridSpec(64, 64, AxisWindow(_K, 1.6), AxisWindow(-_K, math.pi / 10))
    else:
        state = replace(BLOCK_STATE, sigma2=BLOCK_STATE.sigma1 * 1e-4)
        grid = mode_grid(state, Mode.TRANSMITTED, 64)
    fn = ModeWavefunction(Mode.TRANSMITTED, state, BLOCK_DD)
    calls = _record_amplitude_calls(monkeypatch)
    a = discretize(fn, grid).a
    assert calls == [(64, 64)]
    x1, h1 = axis_nodes(grid.n1, grid.window1)
    x2, h2 = axis_nodes(grid.n2, grid.window2)
    ref = math.sqrt(h1 * h2) * fn(x1[:, None], x2[None, :])
    parts = ref.view(float)
    parts *= np.abs(parts) >= 2.0**-511
    assert np.array_equal(a, ref)


# The deepest hard-core corner of the light CLI calls: its reflected window
# is tilted so far that the window's corners lie hundreds of e-folds down
# the Gaussian tail, and its samples are real (r = -1, no position offsets).
TILTED = GaussianInState(k=1.0, sigma1=0.05, sigma2=0.3, masses=MassPartition(0.9))
TILTED_HC = ModeWavefunction(Mode.REFLECTED, TILTED, AmplitudeModel.hard_core(TILTED.masses))


def test_parts_below_2_to_the_minus_511_are_stored_as_zeros():
    grid = mode_grid(TILTED, Mode.REFLECTED, 512)
    raw = one_block_samples(TILTED_HC, grid, flush=False)
    wam = discretize(TILTED_HC, grid)
    a, r = wam.a.view(float), raw.view(float)
    tiny = np.abs(r) < 2.0**-511
    assert np.count_nonzero(tiny & (r != 0.0)) > 0.01 * r.size
    assert np.all(a[tiny] == 0.0)
    assert np.array_equal(a[~tiny].view(np.uint64), r[~tiny].view(np.uint64))
    # what the flush drops lies far below the last bit of the purity
    unflushed = purity_module.WeightedAmplitudeMatrix(raw)
    assert purity_from_matrix(wam, False)[0] == pytest.approx(
        purity_from_matrix(unflushed, False)[0], rel=1e-15
    )


def test_blocked_sampling_keeps_the_bits_where_parts_are_flushed():
    _assert_blocking_keeps_the_bits(TILTED_HC, mode_grid(TILTED, Mode.REFLECTED, 512))


def test_real_samples_take_a_real_gram_matrix():
    wam = discretize(TILTED_HC, mode_grid(TILTED, Mode.REFLECTED, 256))
    assert not wam.a.imag.any()
    assert wam.gram.dtype == np.float64
    g = wam.a.conj().T @ wam.a
    np.testing.assert_allclose(wam.gram, g.real, rtol=0, atol=1e-15 * np.abs(g).max())
    purity, lam = purity_from_matrix(wam)
    assert purity == pytest.approx(np.sum(np.abs(g) ** 2) / np.trace(g).real ** 2, rel=1e-15)
    dense = np.clip(np.linalg.eigvalsh(g)[::-1], 0.0, None)
    np.testing.assert_allclose(lam, dense / dense.sum(), rtol=0, atol=1e-14)

    delta = AmplitudeModel.dirac_delta(1.0, TILTED.masses)
    complex_fn = ModeWavefunction(Mode.REFLECTED, TILTED, delta)
    assert discretize(complex_fn, mode_grid(TILTED, Mode.REFLECTED, 64)).gram.dtype == complex


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def _assert_gram_matches(wam, one):
    """wam's blocked G is mirrored exactly and gives one's purity and spectrum."""
    g = wam.gram
    # each block row's part right of its diagonal block is mirrored exactly below it
    b = purity_module._GRAM_BLOCK
    for s in range(0, g.shape[0], b):
        assert np.array_equal(_bits(g[s + b :, s : s + b]), _bits(g[s : s + b, s + b :].conj().T))
    ref = purity_module.WeightedAmplitudeMatrix(wam.a)
    ref.__dict__["gram"] = one  # the cached_property's slot, as if formed in one product
    purity, lam = purity_from_matrix(wam)
    want, want_lam = purity_from_matrix(ref)
    assert purity == want
    assert np.array_equal(_bits(lam), _bits(want_lam))


GRAM_SHAPES = [(64, 64), (256, 128), (512, 512), (1024, 512), (256, 512)]


@pytest.mark.parametrize("mode", [Mode.TRANSMITTED, Mode.REFLECTED], ids=lambda m: m.value)
@pytest.mark.parametrize("shape", GRAM_SHAPES, ids=[f"{n1}x{n2}" for n1, n2 in GRAM_SHAPES])
def test_blocked_gram_matrix_equals_one_product_bitwise(shape, mode):
    fn = ModeWavefunction(mode, BLOCK_STATE, BLOCK_DD)
    wam = discretize(fn, mode_grid(BLOCK_STATE, mode, shape))
    a, g = wam.a, wam.gram
    assert g.dtype == complex
    if shape[0] >= shape[1]:
        one = a.conj().T @ a
        assert np.array_equal(_bits(g), _bits(one))
    else:
        # the wide grid's G is A^T's, conj(A A^H): equal to it up to the sign
        # of the diagonal's zero imaginary parts, which np.conj flips
        one = np.conj(a @ a.conj().T)
        assert np.array_equal(g, one)
        assert np.array_equal(_bits(g), _bits(a.conj() @ a.T))
    _assert_gram_matches(wam, one)


@pytest.mark.parametrize("shape", [(512, 256), (256, 512)], ids=["512x256", "256x512"])
def test_blocked_real_gram_matrix_equals_one_product_bitwise(shape):
    # real samples run the same block rows in real arithmetic
    wam = discretize(TILTED_HC, mode_grid(TILTED, Mode.REFLECTED, shape))
    x = wam.a.real.copy()
    one = x.T @ x if shape[0] >= shape[1] else x @ x.T
    assert wam.gram.dtype == np.float64
    assert np.array_equal(_bits(wam.gram), _bits(one))
    _assert_gram_matches(wam, one)


@pytest.mark.parametrize("mode", [Mode.TRANSMITTED, Mode.REFLECTED], ids=lambda m: m.value)
def test_sampling_peak_memory_stays_near_the_matrix(mode):
    fn = ModeWavefunction(mode, BLOCK_STATE, BLOCK_DD)
    grid = mode_grid(BLOCK_STATE, mode, (2048, 1024))
    discretize(fn, grid)  # node sets cached outside the measurement
    # one wavefn call on the whole grid peaked at 6.06 x a.nbytes here
    tracemalloc.start()
    try:
        a = discretize(fn, grid).a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * a.nbytes


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
    with pytest.raises(ValueError, match="rel_tol must be at least 1e-10, got nan"):
        check_ladder(float("nan"), 64, 1024)
    with pytest.raises(ValueError, match="rel_tol must be at most 0.1, got 0.2"):
        purity_out(st, AmplitudeModel.hard_core(st.masses), rel_tol=0.2)
    # the defaults live here alone, and the settings come back as given
    assert check_ladder() == {"rel_tol": 1e-6, "base_n": 64, "n_cap": 1024}
    assert check_ladder(0.1, [64, 32], 128) == {"rel_tol": 0.1, "base_n": [64, 32], "n_cap": 128}


def test_every_ladder_takes_check_ladders_defaults():
    # check_ladder's signature states the defaults; no entry point restates them
    defaults = check_ladder()
    for fn in (purity_adaptive, purity_out, purity_pq_adaptive):
        params = inspect.signature(fn).parameters
        for name in set(params) & set(defaults):
            assert params[name].default == defaults[name], (fn.__name__, name)
    assert inspect.signature(mode_grid).parameters["n"].default == defaults["base_n"]
    assert set(inspect.signature(purity_out).parameters) >= set(defaults)


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
    kw = dict(rel_tol=1e-6, base_n=32, n_cap=256)
    with_spec = purity_out(st, model, **kw)
    without = purity_out(st, model, **kw, spectrum=False)
    assert len(with_spec.refinements) > 2
    assert_same_but_spectrum(with_spec, without)
    for branch in ("tra_report", "ref_report"):
        assert_same_but_spectrum(getattr(with_spec, branch), getattr(without, branch))


def test_a_one_level_ladder_reports_its_spectrum_and_a_null_error():
    # n_cap = base_n: one level, whose refinement error is read from its
    # every-other-node subgrid
    st = make_state(mu1=0.2)
    fn = ModeWavefunction(Mode.REFLECTED, st, AmplitudeModel.dirac_delta(6.25, st.masses))
    rep = purity_adaptive(fn, mode_grid(st, Mode.REFLECTED, 32), 1e-6, 32)
    assert len(rep.refinements) == 1
    assert 0.0 < rep.refinement_error <= 1e-6
    assert rep.converged
    assert len(rep.schmidt_spectrum) == 32
    assert rep.schmidt_spectrum.sum() == pytest.approx(1.0, abs=1e-12)
    d = json.loads(json.dumps(rep.as_dict()), parse_constant=_raise_on_constant)
    assert d["refinement_error"] == rep.refinement_error
    assert d["schmidt_rank_full"] == 32
    assert d["schmidt_spectrum"] == rep.schmidt_spectrum.tolist()
    # a level whose subgrid vanishes leaves the error NaN, written as null:
    # on the 32^2 grid over [-16, 16]^2 this is zero unless both nodes have
    # an odd index
    def odd_nodes_only(p1, p2):
        odd = ((p1 + 15.5) % 2.0 == 1.0) & ((p2 + 15.5) % 2.0 == 1.0)
        return np.where(odd, np.exp(-0.05 * (p1**2 + p1 * p2 + p2**2)), 0.0)

    rep = purity_adaptive(odd_nodes_only, square_grid(32, 16.0), 1e-6, 32)
    assert len(rep.refinements) == 1
    assert math.isnan(rep.refinement_error)
    assert not rep.converged
    assert len(rep.schmidt_spectrum) == 32
    d = json.loads(json.dumps(rep.as_dict()), parse_constant=_raise_on_constant)
    assert d["refinement_error"] is None
    assert d["schmidt_rank_full"] == 32


def test_a_resolved_hard_core_point_stops_at_its_base_grid():
    st = make_state(mu1=0.2, s1=0.05, s2=0.2)
    rep = purity_out(st, AmplitudeModel.hard_core(st.masses), spectrum=False)
    assert rep.refinements == ((64, 64, rep.purity),)
    assert rep.converged
    assert rep.refinement_error <= 1e-6
    want = reflected_gaussian_purity(st.masses, st.sigma1, st.sigma2)
    assert want < 0.9
    assert abs(rep.purity - want) <= 1e-6 * want


def test_schmidt_spectrum_is_a_distribution():
    st = make_state(mu1=0.2)
    model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
    rep = purity_out(st, model, rel_tol=1e-6)
    spec = rep.schmidt_spectrum
    assert np.all(spec >= 0.0)
    assert np.all(np.diff(spec) <= 0.0)
    assert np.sum(spec) == pytest.approx(1.0, abs=1e-10)
    assert np.sum(spec**2) == pytest.approx(rep.purity, abs=1e-12)


def dense_spectrum(wam):
    """Reference Schmidt weights: a dense eigensolve of G, clipped and normalized."""
    lam = np.clip(np.linalg.eigvalsh(wam.gram)[::-1], 0.0, None)
    return lam / lam.sum()


@pytest.mark.parametrize("mode", [Mode.TRANSMITTED, Mode.REFLECTED])
def test_spectrum_matches_a_dense_eigensolve_near_a_resonance(mode):
    # the widest criterion-10 point, w5 + 0.018, on its final 4096x1024 grid
    grid = mode_grid(BLOCK_STATE, mode, (4096, 1024))
    wam = discretize(ModeWavefunction(mode, BLOCK_STATE, BLOCK_DD), grid)
    purity, lam = purity_from_matrix(wam)
    assert lam.shape == (1024,)
    np.testing.assert_allclose(lam, dense_spectrum(wam), rtol=0, atol=1e-14)
    assert lam.sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(np.sum(lam**2) - purity) <= 1e-13 * purity
    # G's numerical rank is 224 (transmitted) and 246 (reflected) here; a
    # stopping rule that ran on to r = n would cost over twice the dense
    # eigensolve
    assert np.count_nonzero(lam) <= 300


def random_samples(P1, P2):
    rng = np.random.default_rng(7)
    shape = np.broadcast(P1, P2).shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "fn,n,rank",
    [
        (lambda P1, P2: np.exp(-((P1 - 1) ** 2) / 0.04 - (P2 + 1) ** 2 / 0.16), 64, 1),
        (lambda P1, P2: np.exp(-(P1**2) - P2**2) * (1.0 + P1 * P2), 64, 2),
        # not pointwise, but 128^2 nodes are one block, sampled in one call
        (random_samples, 128, 128),
    ],
)
def test_spectrum_is_exactly_zero_past_the_rank(fn, n, rank):
    wam = discretize(fn, square_grid(n, 6.0))
    purity, lam = purity_from_matrix(wam)
    assert lam.shape == (n,)
    assert np.all(lam[:rank] > 0.0)
    assert np.all(lam[rank:] == 0.0)
    np.testing.assert_allclose(lam, dense_spectrum(wam), rtol=0, atol=1e-14)
    assert lam.sum() == pytest.approx(1.0, abs=1e-14)
    assert abs(np.sum(lam**2) - purity) <= 1e-13 * purity


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
    # a tilted reflected packet, not resolved on its first level
    st = make_state(mu1=0.2, s1=0.3, s2=0.05)
    refl = ModeWavefunction(Mode.REFLECTED_IN, st)
    rep = purity_adaptive(refl, mode_grid(st, Mode.REFLECTED_IN, 64), rel_tol=1e-8)
    assert rep.converged
    assert len(rep.refinements) >= 2
    assert rep.refinements[0][:2] == (64, 64)
    assert rep.grid_n == rep.refinements[-1][:2]
    assert rep.purity == rep.refinements[-1][2]
    assert rep.norm_sq == pytest.approx(1.0, abs=1e-8)


def test_cap_hit_reports_non_convergence():
    # a tilted reflected packet, whose 32^2 level is far off from its subgrid
    st = make_state(mu1=0.2, s1=0.3, s2=0.05)
    refl = ModeWavefunction(Mode.REFLECTED_IN, st)
    rep = purity_adaptive(refl, mode_grid(st, Mode.REFLECTED_IN, 32), rel_tol=1e-8, n_cap=32)
    assert not rep.converged
    assert rep.refinement_error > 1e-3
    assert rep.refinements == ((32, 32, rep.purity),)


def test_window_truncation_matches_gaussian_tail():
    # halving an +-8 sigma window to +-4 sigma cuts erfc-sized corners: the
    # captured norm drops by 1 - erf(4/sqrt(2))^2 ~ 1.3e-4 for a product state
    st = make_state(mu1=0.5, s1=0.1, s2=0.1)
    g8 = mode_grid(st, Mode.IN, 512)
    g4 = GridSpec(
        512,
        512,
        *(AxisWindow(w.center, w.halfwidth / 2) for w in (g8.window1, g8.window2)),
    )
    n8 = discretize(st, g8).norm_sq
    n4 = discretize(st, g4).norm_sq
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


@pytest.mark.xfail(
    strict=True,
    reason="the branch split drops the one-particle cross terms (fix: ROADMAP item 3)",
)
def test_mode_split_matches_the_joint_grid_where_the_packets_overlap():
    # sigma1 = 0.3 k: the reflected packet's p2 range reaches the transmitted
    # one's, and the split lands 2.8e-4 below the joint out-state while its
    # overlap reads 5.3e-6
    mp = MassPartition(0.2)
    model = AmplitudeModel.dirac_delta(1.0, mp)
    k = model.strength_scale
    st = GaussianInState(k=k, sigma1=0.3 * k, sigma2=0.1 * k, masses=mp)
    rep = purity_out(st, model, rel_tol=1e-6, spectrum=False)
    assert rep.converged
    out = ModeWavefunction(Mode.OUT, st, model)
    joint = purity_adaptive(out, joint_grid(st, 256), rel_tol=1e-9)
    assert joint.converged
    assert abs(rep.purity - joint.purity) <= 1e-6 * joint.purity


def _history(d):
    """A ladder's last three changes, oldest first; one number is the last change."""
    return d if isinstance(d, tuple) else (math.nan, math.nan, d)


class _StubLadder:
    """A sampled ladder with given changes, at its node caps unless given
    ``more``: the purity changes of the levels left to sample, with no norm
    change. ``d_first`` are its first level's subgrid changes, which a
    ladder with NaN changes between levels has only."""

    def __init__(self, norm_sq, purity, d_purity, d_norm=0.0, more=(), d_first=(math.nan,) * 2):
        self.norm_sq, self.purity = norm_sq, purity
        self.d_purity, self.d_norm = _history(d_purity), _history(d_norm)
        self.d_first = d_first
        self.more = list(more)
        self.grid, self.caps = GridSpec(32, 32, AxisWindow(0.0, 1.0), AxisWindow(0.0, 1.0)), (1024, 1024)

    def can_double(self):
        return bool(self.more)

    def sample(self):
        d = self.more.pop(0)
        self.purity += d
        self.d_purity, self.d_norm = self.d_purity[1:] + (d,), self.d_norm[1:] + (0.0,)


def test_branch_changes_that_cancel_keep_the_estimate_up():
    # w_t = w_r = 1/2, so the total P = (0.4 + 0.6) / 4 = 0.25 does not move
    # when p_t rises by 1e-4 and p_r falls by as much
    ladders = [_StubLadder(0.5, 0.4, 1e-4), _StubLadder(0.5, 0.6, -1e-4)]
    est = purity_module._refine(ladders, 1e-5)
    assert est == pytest.approx(2 * 0.25 * 1e-4 / 0.25, rel=1e-12)
    assert est > 1e-5
    # a norm change enters through the weights, 2 |w_b p_b - P| |dn_b| / N
    ladders = [_StubLadder(0.5, 0.4, 0.0, 1e-4), _StubLadder(0.5, 0.6, 0.0, -1e-4)]
    est = purity_module._refine(ladders, 1e-5)
    assert est == pytest.approx(2 * 2 * 0.05 * 1e-4 / 0.25, rel=1e-12)


def test_a_one_level_ladder_is_judged_by_its_subgrid():
    # one level: no change between levels, so the subgrid's changes are read
    one = (math.nan,) * 3
    lad = _StubLadder(1.0, 0.5, one, one, more=[1e-9], d_first=(1e-6, 0.0))
    assert purity_module._refine([lad], 1e-5) == 1e-6 / 0.5
    assert lad.more == [1e-9]
    # a norm change of the subgrid counts through the weights as between levels
    ladders = [
        _StubLadder(0.5, 0.4, one, one, d_first=(0.0, 1e-4)),
        _StubLadder(0.5, 0.6, 0.0),
    ]
    assert purity_module._refine(ladders, 1e-3) == pytest.approx(2 * 0.05 * 1e-4 / 0.25, rel=1e-12)
    # a vanished subgrid leaves the share unknown: that ladder doubles,
    # although the other's known share (1e-3) already meets rel_tol
    vanished = _StubLadder(0.5, 0.4, one, one, more=[1e-9])
    ladders = [_StubLadder(0.5, 0.6, 1e-3, more=[1e-9]), vanished]
    assert purity_module._refine(ladders, 1e-2) == pytest.approx(1e-3, rel=1e-6)
    assert vanished.more == []
    assert ladders[0].more == [1e-9]


def test_two_geometric_ratios_stop_the_ladder_with_the_tail():
    # ratios 0.4 then 0.25: the raw estimate 1e-4 / 0.5 misses rel_tol, the
    # tail 1e-4 * 0.25 / 0.75 / 0.5 meets it, and no level is sampled
    lad = _StubLadder(1.0, 0.5, (1e-3, 4e-4, 1e-4), more=[1e-5])
    est = purity_module._refine([lad], 1e-4)
    assert est == pytest.approx(1e-4 * (0.25 / 0.75) / 0.5, rel=1e-12)
    assert lad.more == [1e-5]
    # norm changes are read as a tail on their own: P = 0.25 and
    # 2 |w_b p_b - P| / N = 0.1, so the raw estimate reads 4e-5
    ladders = [_StubLadder(0.5, 0.4, 0.0, (1e-3, 4e-4, 1e-4)), _StubLadder(0.5, 0.6, 0.0)]
    est = purity_module._refine(ladders, 2e-5)
    assert est == pytest.approx(0.1 * 1e-4 * (0.25 / 0.75) / 0.25, rel=1e-12)


def test_one_small_ratio_after_a_large_one_does_not_stop_the_ladder():
    # reference row k = 0.385b: its transmitted branch's 128 -> 256 change
    # fell by 9x after one that barely fell, and a tail read from that one
    # ratio stopped it 1.1e-5 from the total. Here the tail would read
    # 2.5e-6, but the ratio before is 0.9, so the ladder doubles and stops
    # on the raw change of the next level.
    lad = _StubLadder(1.0, 0.5, (1e-4, 9e-5, 1e-5), more=[1e-6])
    est = purity_module._refine([lad], 1e-5)
    assert lad.more == []
    assert est == 1e-6 / (0.5 + 1e-6)


@pytest.mark.parametrize(
    "changes", [(0.0, 1e-4, 1e-5), (1e-3, 0.0, 1e-5)], ids=["d_n-2", "d_n-1"]
)
def test_a_zero_earlier_change_keeps_the_last_change(changes):
    # numpy zeros, whose quotient would warn, and the warning fail the suite
    lad = _StubLadder(1.0, 0.5, tuple(np.float64(d) for d in changes))
    assert purity_module._refine([lad], 1e-5) == 1e-5 / 0.5


def test_a_raw_estimate_within_rel_tol_is_reported_as_it_is():
    # geometric changes, but the raw estimate 2e-6 already meets rel_tol
    lad = _StubLadder(1.0, 0.5, (1e-3, 4e-4, 1e-6))
    assert purity_module._refine([lad], 1e-5) == 1e-6 / 0.5


def test_reports_hold_python_bools():
    # a numpy bool would print as True in the sweep CSV and break json.dump
    rep = purity_out(TILTED, AmplitudeModel.hard_core(TILTED.masses), spectrum=False)
    assert type(rep.converged) is bool
    assert type(rep.ref_report.converged) is bool
    json.dumps(rep.as_dict())


def test_a_small_branch_stops_short_of_its_own_tolerance():
    # criterion 10's sigma1 = k/10 point below the resonance: the transmitted
    # branch carries under 1e-3 of the total, so the total converges while
    # the transmitted ladder's own difference is still above rel_tol
    k = find_resonances(BLOCK_DD, (0.01, 1.0), 1)[0] - 0.033
    st = GaussianInState(k=k, sigma1=k / 10, sigma2=k / 20, masses=BLOCK_MASSES)
    rep = purity_out(st, BLOCK_DD, rel_tol=1e-5, base_n=(128, 64), n_cap=(4096, 1024))
    assert rep.converged
    assert rep.refinement_error <= 1e-5
    assert rep.purity_tra < 1e-3 * rep.purity
    assert not rep.tra_report.converged
    assert rep.tra_report.refinement_error > 1e-5


# 2048^2 split totals w_t^2 p_t + w_r^2 p_r of two rows of ROADMAP.md's
# reference sweep: each branch sampled once by discretize on its
# mode_grid(state, mode, 2048), purity_from_matrix per branch, weights
# w_t = n_t / (n_t + n_r) and w_r = 1 - w_t
REFERENCE_ROWS = {
    6: 0.47648867366049713,  # k = 0.193b: the transmitted ladder's own difference is 1.9e-2 at 1024^2
    8: 0.46731894915905287,  # k = 0.241b: the row whose 1024-node error is largest
}


@pytest.mark.parametrize("row", REFERENCE_ROWS)
def test_reference_rows_converge_within_rel_tol_of_the_fine_total(row):
    mp = MassPartition(0.2)
    alpha = 6.25
    model = AmplitudeModel.double_dirac_delta(alpha, 10.0 / (mp.mu_red * alpha), mp)
    k = float(np.linspace(0.05, 0.6, 24)[row]) * model.strength_scale
    st = GaussianInState(k=k, sigma1=0.2 * k, sigma2=0.1 * k, masses=mp)
    rep = purity_out(st, model, rel_tol=1e-5, base_n=64, n_cap=1024, spectrum=False)
    assert rep.converged
    fine = REFERENCE_ROWS[row]
    assert abs(rep.purity - fine) <= 1e-5 * fine


def test_a_reference_row_that_refines_keeps_its_ladders_bitwise():
    # k = 0.337b: both branches reach a second level, so the first level's
    # subgrid check changes none of their levels or bits
    mp = MassPartition(0.2)
    alpha = 6.25
    model = AmplitudeModel.double_dirac_delta(alpha, 10.0 / (mp.mu_red * alpha), mp)
    k = float(np.linspace(0.05, 0.6, 24)[12]) * model.strength_scale
    st = GaussianInState(k=k, sigma1=0.2 * k, sigma2=0.1 * k, masses=mp)
    rep = purity_out(st, model, rel_tol=1e-5, base_n=64, n_cap=1024, spectrum=False)
    assert rep.tra_report.refinements == (
        (64, 64, 0.5306499113503984),
        (128, 128, 0.4479941925018326),
        (256, 256, 0.4384887453802659),
        (512, 512, 0.4382826904621943),
    )
    assert rep.ref_report.refinements == (
        (64, 64, 0.46272955320796383),
        (128, 128, 0.46204688233614616),
        (256, 256, 0.4620050731122199),
        (512, 512, 0.4620050076739825),
    )
    assert rep.purity == 0.41790717654079734
    assert rep.refinement_error == 1.3999522622290252e-06
    assert rep.converged


def test_hard_core_out_ladder_is_unchanged_bitwise():
    # the tilted light_points corner on midpoint grids, its reflected window
    # widened by 0.19 % to the commensurate 1/4: one live branch, so
    # w = 1 and the total's estimate is the reflected ladder's own, here the
    # tail of its geometric series, which stops the ladder at 256^2
    rep = purity_out(TILTED, AmplitudeModel.hard_core(TILTED.masses), rel_tol=1e-6)
    assert rep.tra_report is None
    assert rep.refinements == (
        (64, 64, 0.11050571505231999),
        (128, 128, 0.11532442139870909),
        (256, 256, 0.11532444400535233),
    )
    assert rep.purity == 0.11532444400535233
    assert rep.refinement_error == 1.960264663135448e-07
    assert rep.refinement_error == rep.ref_report.refinement_error
    assert rep.converged
    assert rep.norm_sq == 0.9999999999999982
    want = reflected_gaussian_purity(TILTED.masses, TILTED.sigma1, TILTED.sigma2)
    assert rep.purity == pytest.approx(want, rel=1e-14, abs=0.0)
    # the tail of g past q = 0 over the branch's norm, from the 1-D rule; the
    # rule's endpoint weights (numpy's leggauss, 1.3e-12 relative at the
    # first node of 64) leave it 1.7e-14 from the closed form
    assert rep.oob_weight == rep.ref_report.oob_weight == 0.00010650354208228087
    tail = 0.5 * math.erfc(TILTED.k / (math.sqrt(2.0) * TILTED.sigma_q))
    assert rep.oob_weight == pytest.approx(tail / rep.norm_sq, rel=2e-14, abs=0.0)


def two_branch_peak(spectrum):
    """tracemalloc peak of a purity_out call, in units of its last level's A."""
    # criterion 10's w5 + 0.018 point with both branches capped at 1024 x 512
    kw = dict(rel_tol=1e-5, base_n=(128, 64), n_cap=(1024, 512), spectrum=spectrum)
    rep = purity_out(BLOCK_STATE, BLOCK_DD, **kw)  # node sets cached outside the measurement
    assert rep.tra_report.grid_n == rep.ref_report.grid_n == (1024, 512)
    tracemalloc.start()
    try:
        purity_out(BLOCK_STATE, BLOCK_DD, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * 1024 * 512)


def test_a_branch_not_being_refined_keeps_no_samples():
    # the last level's A, the Gram product's conjugated 1024 x 128 panel
    # (0.25 x) and the 512^2 G (0.5 x) peak at 1.78 x A's bytes here, as
    # when the two branch ladders ran one after the other; a ladder that
    # kept its A while the other branch sampled reached 3.03 x
    assert two_branch_peak(spectrum=False) <= 2.0


def test_a_ladder_drops_its_gram_matrix_before_the_next_level():
    # with a spectrum each ladder keeps its last G: the other branch's 512^2
    # G adds 0.5 x, for 2.28 x in all, and a ladder that kept its previous
    # level's 256^2 G while it sampled the next one reached 2.41 x
    assert two_branch_peak(spectrum=True) <= 2.4


def test_hard_core_out_is_a_pure_reflection():
    st = make_state(mu1=0.3, s1=0.06, s2=0.102)
    rep = purity_out(st, AmplitudeModel.hard_core(st.masses), rel_tol=1e-8)
    assert rep.tra_report is None
    assert rep.purity_tra == 0.0
    assert rep.overlap == 0.0
    assert rep.purity == pytest.approx(
        reflected_gaussian_purity(st.masses, st.sigma1, st.sigma2), abs=1e-6
    )


def test_hard_core_purity_holds_over_every_representable_momentum_scale():
    # a decade scan of k: each state is rejected at construction or meets the
    # closed form within rel_tol
    mp = MassPartition(0.2)
    accepted = []
    for e in range(-200, 201):
        k = 10.0**e
        try:
            st = GaussianInState(k=k, sigma1=0.2 * k, sigma2=0.1 * k, masses=mp)
        except ValueError:
            continue
        rep = purity_out(st, AmplitudeModel.hard_core(mp), rel_tol=1e-6)
        want = reflected_gaussian_purity(mp, st.sigma1, st.sigma2)
        assert rep.converged, k
        assert rep.purity == pytest.approx(want, rel=1e-6), k
        accepted.append(e)
    assert accepted == list(range(-152, 153))


@pytest.mark.parametrize("log_k_over_b", [-150, -90, -81, 81, 90, 150])
def test_a_negligible_branch_counts_as_vanished(log_k_over_b):
    # the weaker branch carries T or R below 1e-162: its Gram matrix cannot
    # be squared, and the total is the limit of pure reflection or transmission
    mp = MassPartition(0.2)
    st = GaussianInState(k=1.0, sigma1=0.2, sigma2=0.1, masses=mp)
    rep = purity_out(st, AmplitudeModel.dirac_delta(10.0**-log_k_over_b / mp.mu_red, mp))
    reflects = log_k_over_b < 0
    limit = reflected_gaussian_purity(mp, 0.2, 0.1) if reflects else 1.0
    assert rep.converged
    assert rep.purity == pytest.approx(limit, rel=1e-6)
    assert (rep.tra_report is None, rep.ref_report is None) == (reflects, not reflects)
    assert rep.overlap == 0.0


def test_a_norm_too_small_to_square_is_rejected():
    st = make_state()
    grid = mode_grid(st, Mode.IN, 32)
    purity, _ = purity_from_matrix(discretize(st, grid), spectrum=False)
    # norm^2 near 1e-150: its square is a normal double, and the purity keeps its digits
    small, _ = purity_from_matrix(discretize(lambda p1, p2: 1e-75 * st(p1, p2), grid), False)
    assert small == pytest.approx(purity, rel=1e-13)
    # norm^2 near 1e-160: its square is subnormal
    tiny = discretize(lambda p1, p2: 1e-80 * st(p1, p2), grid)
    assert 0.0 < tiny.norm_sq**2 < np.finfo(float).tiny
    with pytest.raises(ZeroWavefunctionError):
        purity_from_matrix(tiny)


def _count_discretize(monkeypatch):
    grids = []

    def counting(wavefn, grid):
        grids.append(grid)
        return discretize(wavefn, grid)

    monkeypatch.setattr(purity_module, "discretize", counting)
    return grids


def test_vanished_branch_skips_the_overlap_sampling(monkeypatch):
    st = make_state(mu1=0.3, s1=0.06, s2=0.102)
    grids = _count_discretize(monkeypatch)
    rep = purity_out(st, AmplitudeModel.hard_core(st.masses), rel_tol=1e-8)
    assert rep.tra_report is None
    assert rep.overlap == 0.0
    # the transmitted base level, where t = 0 ends the branch, then one call
    # per reflected level; never the joint grid of the overlap
    levels = rep.ref_report.refinements
    assert len(grids) == 1 + len(levels)
    assert grids[0] == mode_grid(st, Mode.TRANSMITTED, 64)
    assert [(g.n1, g.n2) for g in grids[1:]] == [(n1, n2) for n1, n2, _ in levels]
    assert joint_grid(st) not in grids


def test_both_branches_vanishing_is_an_error(monkeypatch):
    def zero(self, q):
        z = np.zeros(np.shape(q), dtype=complex)
        return AmplitudePair(z, z.copy())

    monkeypatch.setattr(AmplitudeModel, "amplitudes", zero)
    st, model = OVERLAP_CASES["delta"]
    with pytest.raises(ZeroWavefunctionError, match="^both scattering branches vanish$"):
        purity_out(st, model, base_n=32, n_cap=32)


def test_two_live_branches_sample_no_joint_grid(monkeypatch):
    # the overlap is a 1-D integral over q: every discretize call is a ladder level
    st, model = OVERLAP_CASES["delta"]
    grids = _count_discretize(monkeypatch)
    rep = purity_out(st, model, base_n=32, n_cap=32, spectrum=False)
    assert rep.overlap > 0.0
    assert grids == [mode_grid(st, mode, 32) for mode in (Mode.TRANSMITTED, Mode.REFLECTED)]
    assert joint_grid(st) not in grids


@functools.lru_cache(maxsize=4)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_nodes(n, window):
    """numpy's Gauss-Legendre rule on the window, independent of the engine's midpoint rule."""
    x, w = _leggauss(n)
    return window.center + window.halfwidth * x, window.halfwidth * w


def joint_grid_overlap(state, model, n):
    """|<t|r>| on an n x n joint grid: own nodes, Gaussians and amplitudes."""
    jg = joint_grid(state, n)
    x1, w1 = gauss_legendre_nodes(jg.n1, jg.window1)
    x2, w2 = gauss_legendre_nodes(jg.n2, jg.window2)
    pm = PairMomentum(x1[:, None], x2[None, :])
    mp = state.masses
    amp = ModeWavefunction(Mode.OUT, state, model).amplitudes_at(mp.mu2 * pm.p1 - mp.mu1 * pm.p2)
    tv = amp.t * state(*pm)
    rv = amp.r * state(*reflect_momenta(pm, state.masses))
    return abs(np.sum(w1[:, None] * w2[None, :] * np.conj(tv) * rv))


OVERLAP_CASES = {
    "delta": (make_state(mu1=0.2), AmplitudeModel.dirac_delta(6.25, MassPartition(0.2))),
    "double_delta": (BLOCK_STATE, BLOCK_DD),  # criterion 10's w5 + 0.018
    # wide packets at k = b, with the branches' relative phase exp(2iq (a2 - a1))
    "moved": (
        GaussianInState(1.0, 0.3, 0.1, MassPartition(0.2), a1=-1.0, a2=2.0),
        AmplitudeModel.dirac_delta(6.25, MassPartition(0.2)),
    ),
}


@pytest.mark.parametrize("case", OVERLAP_CASES)
def test_overlap_matches_the_joint_grid_formula(case):
    # two independent rules: the 1-D q integral and a 1024^2 sum over (p1, p2)
    st, model = OVERLAP_CASES[case]
    rep = purity_out(st, model, base_n=32, n_cap=32, spectrum=False)
    ref = joint_grid_overlap(st, model, 1024)
    assert ref > 0.0
    assert rep.overlap == pytest.approx(ref, rel=1e-5, abs=0.0)


def gauss_legendre_split_total(state, model, n):
    """The split total w_t^2 p_t + w_r^2 p_r, each branch on an n x n Gauss-Legendre grid."""
    parts = []
    for mode in (Mode.TRANSMITTED, Mode.REFLECTED):
        grid = mode_grid(state, mode, n)
        x1, w1 = gauss_legendre_nodes(n, grid.window1)
        x2, w2 = gauss_legendre_nodes(n, grid.window2)
        vals = ModeWavefunction(mode, state, model)(x1[:, None], x2[None, :])
        a = np.sqrt(w1)[:, None] * np.sqrt(w2)[None, :] * vals
        wam = purity_module.WeightedAmplitudeMatrix(a)
        parts.append((wam.norm_sq, purity_from_matrix(wam, spectrum=False)[0]))
    total = sum(nb for nb, _ in parts)
    return sum((nb / total) ** 2 * p for nb, p in parts)


@pytest.mark.parametrize("k_over_b", [1.0, 3.0])
@pytest.mark.parametrize("mu1", [0.1, 0.5])
@pytest.mark.parametrize("s1, s2", [(0.3, 0.3), (0.4, 0.2)])
def test_wide_delta_packets_converge_within_rel_tol_of_a_gauss_legendre_total(
    s1, s2, mu1, k_over_b
):
    # packets so wide that the kink of t(|q|) at q = 0 enters the transmitted
    # window, where the midpoint rule converges only algebraically; the
    # reference is an independent rule at 1024^2
    mp = MassPartition(mu1)
    model = AmplitudeModel.dirac_delta(1.0 / mp.mu_red, mp)  # b = 1
    with warnings.catch_warnings():
        # sigma = 0.4 k warns of its out-of-convention tail; the split's purity is defined still
        warnings.simplefilter("ignore", IncomingnessWarning)
        st = GaussianInState(k_over_b, s1 * k_over_b, s2 * k_over_b, mp)
    rep = purity_out(st, model, spectrum=False)
    ref = gauss_legendre_split_total(st, model, 1024)
    assert rep.converged
    assert abs(rep.purity - ref) <= check_ladder()["rel_tol"] * ref


def test_overlap_holds_over_every_representable_momentum_scale():
    # a decade scan of k at fixed k/b = 1, sigma/k, a b and, for the double
    # delta, half separation times b
    mp = MassPartition(0.2)
    overlaps, accepted = {}, []
    for e in range(-200, 201):
        k = 10.0**e
        try:
            st = GaussianInState(k, 0.2 * k, 0.1 * k, mp, a1=-0.5 / k, a2=1.0 / k)
        except ValueError:
            continue
        alpha = k / mp.mu_red
        for name, model in (
            ("delta", AmplitudeModel.dirac_delta(alpha, mp)),
            ("double_delta", AmplitudeModel.double_dirac_delta(alpha, 2.0 / k, mp)),
        ):
            rep = purity_out(st, model, base_n=32, n_cap=32, spectrum=False)
            overlaps.setdefault(name, []).append(rep.overlap)
        accepted.append(e)
    assert accepted == list(range(-152, 153))
    for name, vals in overlaps.items():
        assert vals[0] > 0.0, name
        assert vals == pytest.approx([vals[0]] * len(vals), rel=1e-12, abs=0.0), name


def test_overlap_is_zero_where_its_gaussian_factor_underflows():
    # criterion 10's w = 50 points: exp(-k^2 / (2 sigma_q^2)) = exp(-1924)
    st = replace(BLOCK_STATE, sigma1=BLOCK_STATE.k / 50, sigma2=BLOCK_STATE.k / 100)
    rep = purity_out(st, BLOCK_DD, base_n=32, n_cap=32, spectrum=False)
    assert rep.tra_report is not None and rep.ref_report is not None
    assert rep.overlap == 0.0


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


def test_a_non_finite_tail_integrand_fails_loudly(monkeypatch):
    real = AmplitudeModel.amplitudes

    def nan_on_the_tail_nodes(self, q):
        t, r = real(self, q)
        if np.size(q) == 64:  # the tails' nodes; no ladder's q-lattice holds 64
            r = np.full_like(r, np.nan)
        return AmplitudePair(t, r)

    monkeypatch.setattr(AmplitudeModel, "amplitudes", nan_on_the_tail_nodes)
    # the hard core has one live branch, so no overlap is computed first
    message = "^64 non-finite out-of-convention integrands on 64 relative momenta, first at q = "
    with pytest.raises(FloatingPointError, match=message):
        purity_out(TILTED, AmplitudeModel.hard_core(TILTED.masses), base_n=32, n_cap=32)


def test_out_of_convention_weight_tracks_momentum_spread():
    narrow = make_state(mu1=0.5, s1=0.1, s2=0.1)
    rep = purity_out(narrow, AmplitudeModel.hard_core(narrow.masses), rel_tol=1e-7)
    assert rep.oob_weight < 1e-9

    with pytest.warns(Warning):
        wide = make_state(mu1=0.5, s1=0.4, s2=0.4)
    rep_wide = purity_out(wide, AmplitudeModel.hard_core(wide.masses), rel_tol=1e-7)
    assert 1e-6 < rep_wide.oob_weight < 1e-2


def test_out_mode_ladder_reports_no_oob_weight():
    # a ladder over any callable has no incident convention to measure;
    # purity_out takes each branch's weight from the q marginal
    st = make_state(mu1=0.2, s1=0.1, s2=0.2)
    model = AmplitudeModel.dirac_delta(st.k / st.masses.mu_red, st.masses)
    out = purity_adaptive(ModeWavefunction(Mode.OUT, st, model), joint_grid(st, 64), n_cap=64)
    assert out.oob_weight is None
    assert out.as_dict()["oob_weight"] is None
    for mode in (Mode.IN, Mode.REFLECTED_IN, Mode.TRANSMITTED, Mode.REFLECTED):
        fn = ModeWavefunction(mode, st, model)
        assert purity_adaptive(fn, mode_grid(st, mode, 64), n_cap=64).oob_weight is None, mode
    rep = purity_out(st, model, base_n=32, n_cap=32, spectrum=False)
    branches = (rep.tra_report.oob_weight, rep.ref_report.oob_weight)
    assert all(isinstance(w, float) and w > 0.0 for w in branches)
    assert rep.oob_weight == max(branches)
    assert rep.as_dict()["tra"]["oob_weight"] == branches[0]


def half_line_tails(state, model):
    """Each branch's weight at incident q <= 0, by adaptive quadrature in q itself.

    The transmitted branch is incident at q, the reflected one (phi_in at
    (P, -q)) at -q; g is |phi_in|^2 integrated over the total momentum P.
    """
    sq, k = state.sigma_q, state.k

    def g(q):
        return math.exp(-0.5 * ((q - k) / sq) ** 2) / (math.sqrt(2.0 * math.pi) * sq)

    kw = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    tra = quad(lambda q: abs(model.amplitudes(-q).t) ** 2 * g(q), -np.inf, 0.0, **kw)[0]
    ref = quad(lambda q: abs(model.amplitudes(q).r) ** 2 * g(-q), 0.0, np.inf, **kw)[0]
    return tra, ref


TAIL_CASES = {
    "delta": OVERLAP_CASES["delta"],
    "wide_delta": (make_state(mu1=0.2, s1=0.3, s2=0.3), OVERLAP_CASES["delta"][1]),
    "double_delta": (BLOCK_STATE, BLOCK_DD),  # criterion 10's w5 + 0.018
    "narrow_double_delta": (replace(BLOCK_STATE, sigma1=_K / 10, sigma2=_K / 20), BLOCK_DD),
    "composite": (BLOCK_STATE, BLOCK_MODELS["composite"]),
    # criterion 10's w = 50: exp(-k^2 / (2 sigma_q^2)) = exp(-1924)
    "underflow": (replace(BLOCK_STATE, sigma1=_K / 50, sigma2=_K / 100), BLOCK_DD),
}


@pytest.mark.parametrize("case", TAIL_CASES)
def test_oob_weight_matches_a_half_line_integral_in_q(case):
    st, model = TAIL_CASES[case]
    # the suite turns warnings into errors, so an overflow warning from g would fail here
    rep = purity_out(st, model, base_n=32, n_cap=32, spectrum=False)
    want = half_line_tails(st, model)
    branches = (rep.tra_report, rep.ref_report)
    got = [b.oob_weight * b.norm_sq for b in branches]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # an exact zero only where g underflows on the whole half line
    underflows = math.exp(-0.5 * (st.k / st.sigma_q) ** 2) == 0.0
    assert all((w == 0.0) == underflows for w in got)
