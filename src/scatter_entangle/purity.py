"""Purity of the one-particle reduced density matrix, by quadrature and a Gram matrix.

A two-particle momentum wave function sampled on a tensor Gauss-Legendre
grid, with quadrature weights folded in as A[i, j] = sqrt(w1_i * w2_j) *
phi(p1_i, p2_j), turns the purity integral into matrix algebra. With G the
smaller of the Gram matrices A^H A and A A^H (Hermitian, the size of A's
shorter side),

    purity = Tr(G^2) / Tr(G)^2 = ||G||_F^2 / Tr(G)^2,

and the eigenvalues of G over Tr(G) are the Schmidt weights lambda, with
purity = sum(lambda^2). Refinement levels need only the purity; the
eigensolve runs once, on the last level's G, and only when the caller asks
for the spectrum (``spectrum=True``, the default). The CLI sweep prints no
spectrum and does not ask for it.

Windows are centered on each mode and wide enough (default +-8 sigma per
axis) that the truncated tails are far below the refinement tolerance. Grids
refine by doubling both axes until successive purities agree to rel_tol;
hitting the node cap without convergence is reported, never silent.

The out-state is handled as two single-mode computations (transmitted and
reflected branches barely overlap for incoming states), recombined as
w_t^2 * p_t + w_r^2 * p_r with weights w = n_mode / (n_tra + n_ref); a joint
grid covering both lobes reproduces the same number and serves as the
additivity cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .kinematics import JacobiMomentum, PairMomentum
from .wavefunction import (
    GaussianInState,
    Mode,
    ModeWavefunction,
    eval_amplitudes,
    eval_in,
    eval_in_jacobi,
    eval_reflected_in,
    mode_center,
    mode_covariance,
)
from .amplitudes import AmplitudeModel

__all__ = [
    "AxisWindow",
    "GridSpec",
    "WeightedAmplitudeMatrix",
    "PurityReport",
    "ZeroWavefunctionError",
    "axis_nodes",
    "check_ladder",
    "discretize",
    "purity_from_matrix",
    "purity_adaptive",
    "purity_out",
    "purity_pq_adaptive",
    "window_for_mode",
    "mode_grid",
    "joint_grid",
    "jacobi_grid",
]

NPair = Union[int, Sequence[int]]


class ZeroWavefunctionError(ValueError):
    """The sampled wave function vanished identically on the grid."""


@dataclass(frozen=True)
class AxisWindow:
    """Symmetric integration window [center - halfwidth, center + halfwidth]."""

    center: float
    halfwidth: float

    def __post_init__(self) -> None:
        if not self.halfwidth > 0.0:
            raise ValueError(f"window halfwidth must be positive, got {self.halfwidth}")


def _check_n(n: int, label: str) -> None:
    if n < 32 or (n & (n - 1)) != 0:
        raise ValueError(f"{label} must be a power of two >= 32, got {n}")


@dataclass(frozen=True)
class GridSpec:
    """Tensor Gauss-Legendre grid: n1 x n2 nodes over two axis windows.

    Node counts follow a power-of-two progression starting at 32 so that
    refinement by doubling stays within the family.
    """

    n1: int
    n2: int
    window1: AxisWindow
    window2: AxisWindow

    def __post_init__(self) -> None:
        _check_n(self.n1, "n1")
        _check_n(self.n2, "n2")

    def doubled(self, cap1: int, cap2: int) -> "GridSpec":
        return replace(self, n1=min(2 * self.n1, cap1), n2=min(2 * self.n2, cap2))


@lru_cache(maxsize=32)
def _leggauss(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.polynomial.legendre.leggauss(n)``, with its eigensolve on the band.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    of the Legendre recurrence (Golub & Welsch, Math. Comp. 23, 1969), which
    numpy hands to a dense O(n^3) solver: about 4 s at n = 4096. This is
    numpy's algorithm (same companion band, one Newton polish, same weight
    formula and symmetrization) with only that eigensolve replaced, and it
    returns the same bits.
    """
    leg = np.polynomial.legendre
    scl = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x = eigvalsh_tridiagonal(np.zeros(n), np.arange(1, n) * scl[:-1] * scl[1:])
    c = np.array([0] * n + [1])
    dy = leg.legval(x, c)
    df = leg.legval(x, leg.legder(c))
    x -= dy / df
    # the weights, scaled against overflow
    fm = leg.legval(x, c[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    return x, w


def axis_nodes(n: int, window: AxisWindow) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights scaled to the window."""
    x, w = _leggauss(n)
    return window.center + window.halfwidth * x, window.halfwidth * w


@dataclass(frozen=True)
class WeightedAmplitudeMatrix:
    """Wave-function samples with quadrature weights folded in.

    a[i, j] = sqrt(weights1[i] * weights2[j]) * phi(nodes1[i], nodes2[j]),
    so that ||a||_F^2 approximates the squared norm of phi on the window.
    """

    nodes1: np.ndarray
    nodes2: np.ndarray
    weights1: np.ndarray
    weights2: np.ndarray
    a: np.ndarray

    @cached_property
    def gram(self) -> np.ndarray:
        """The smaller Gram matrix, A^H A or A A^H; formed once per matrix."""
        a = self.a
        return a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T

    @property
    def norm_sq(self) -> float:
        """||A||_F^2 = Tr(G)."""
        return float(np.trace(self.gram).real)


def discretize(
    wavefn: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: GridSpec
) -> WeightedAmplitudeMatrix:
    """Sample ``wavefn(P1, P2)`` on the grid and fold in quadrature weights.

    Aborts with diagnostics if any sample is non-finite; purity downstream
    would silently turn into NaN otherwise. The weights are folded into the
    sampled array in place, so ``wavefn`` must return a new array, as every
    wave function of this package does.
    """
    x1, w1 = axis_nodes(grid.n1, grid.window1)
    x2, w2 = axis_nodes(grid.n2, grid.window2)
    vals = np.asarray(wavefn(x1[:, None], x2[None, :]), dtype=complex)
    if vals.shape != (grid.n1, grid.n2):
        raise ValueError(
            f"wave function returned shape {vals.shape}, expected {(grid.n1, grid.n2)}"
        )
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise FloatingPointError(
            f"{np.count_nonzero(bad)} non-finite samples on {grid.n1}x{grid.n2} grid, "
            f"first at (p1, p2) = ({x1[i]:.6g}, {x2[j]:.6g})"
        )
    a = np.multiply(np.sqrt(w1)[:, None] * np.sqrt(w2)[None, :], vals, out=vals)
    return WeightedAmplitudeMatrix(nodes1=x1, nodes2=x2, weights1=w1, weights2=w2, a=a)


def purity_from_matrix(
    wam: WeightedAmplitudeMatrix, spectrum: bool = True
) -> Tuple[float, Optional[np.ndarray]]:
    """(purity, Schmidt spectrum) from the Gram matrix G of the samples.

    purity = ||G||_F^2 / Tr(G)^2. The spectrum, G's eigenvalues in
    descending order, clipped at 0 and normalized to sum to 1, is computed
    only when ``spectrum`` is true (None otherwise), so that a refinement
    ladder pays for one eigensolve rather than one per level. Checked in the
    test suite against the singular values of A and an O(N^4) direct
    contraction of the purity integral.
    """
    norm_sq = wam.norm_sq
    if norm_sq == 0.0:
        raise ZeroWavefunctionError("wave function vanishes on the entire grid")
    purity = float(np.sum(np.abs(wam.gram) ** 2)) / norm_sq**2
    return purity, _schmidt_spectrum(wam) if spectrum else None


def _schmidt_spectrum(wam: WeightedAmplitudeMatrix) -> np.ndarray:
    # eigvalsh leaves roundoff-sized negative weights on rank-deficient grids
    lam = np.clip(np.linalg.eigvalsh(wam.gram)[::-1], 0.0, None)
    return lam / lam.sum()


@dataclass(frozen=True)
class PurityReport:
    """Result of an adaptive purity computation.

    ``refinements`` traces (n1, n2, purity) per grid; ``refinement_error`` is
    the last successive relative difference, NaN when only one grid ran. For
    out-state reports the branch fields are populated and
    ``purity = purity_tra + purity_ref``. ``schmidt_spectrum`` is None when
    the computation ran with ``spectrum=False``, which skips the one
    eigensolve of the final grid and leaves every other field unchanged.
    """

    purity: float
    schmidt_spectrum: Optional[np.ndarray]
    grid_n: Tuple[int, int]
    refinement_error: float
    converged: bool
    norm_sq: float
    refinements: Tuple[Tuple[int, int, float], ...]
    oob_weight: Optional[float] = None
    purity_tra: Optional[float] = None
    purity_ref: Optional[float] = None
    overlap: Optional[float] = None
    tra_report: Optional["PurityReport"] = None
    ref_report: Optional["PurityReport"] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.purity <= 1.0 + 1e-9:
            raise ValueError(f"purity out of range (0, 1]: {self.purity}")

    def as_dict(self, spectrum_head: int = 128) -> dict:
        err = self.refinement_error
        lam = self.schmidt_spectrum
        head = None if lam is None else [float(v) for v in lam[:spectrum_head]]
        d = {
            "purity": self.purity,
            "purity_tra": self.purity_tra,
            "purity_ref": self.purity_ref,
            "overlap": self.overlap,
            "schmidt_spectrum": head,
            "schmidt_rank_reported": None if lam is None else len(head),
            "schmidt_rank_full": None if lam is None else len(lam),
            "grid_n": list(self.grid_n),
            # JSON (RFC 8259) has no NaN, which a one-grid ladder leaves here
            "refinement_error": None if np.isnan(err) else err,
            "converged": self.converged,
            "norm_sq": self.norm_sq,
            "oob_weight": self.oob_weight,
            "refinements": [[int(n1), int(n2), p] for n1, n2, p in self.refinements],
        }
        if self.tra_report is not None:
            d["tra"] = self.tra_report.as_dict(spectrum_head)
        if self.ref_report is not None:
            d["ref"] = self.ref_report.as_dict(spectrum_head)
        return d


def _as_pair(n: NPair) -> Tuple[int, int]:
    if isinstance(n, (tuple, list)):  # a list is how JSON configs spell a pair
        return int(n[0]), int(n[1])
    return int(n), int(n)


def check_ladder(
    rel_tol: float, base_n: NPair, n_cap: NPair, overlap_n: NPair = 256
) -> None:
    """Reject engine settings that the refinement ladder or purity_out cannot run.

    rel_tol below 1e-10 is unreachable (roundoff floor of the quadrature
    purity). Per axis, the starting node count, its cap and the overlap
    diagnostic's node count must be powers of two >= 32, and the cap must
    not lie below the start. Messages name the setting and the axis.
    """
    if rel_tol < 1e-10:
        raise ValueError(f"rel_tol below 1e-10 is unreachable, got {rel_tol}")
    for axis, n0, cap, n_ov in zip(
        ("n1", "n2"), _as_pair(base_n), _as_pair(n_cap), _as_pair(overlap_n)
    ):
        _check_n(n0, f"base_n for {axis}")
        _check_n(cap, f"n_cap for {axis}")
        if cap < n0:
            raise ValueError(f"n_cap for {axis} = {cap} below base_n = {n0}")
        _check_n(n_ov, f"overlap_n for {axis}")


def purity_adaptive(
    wavefn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridSpec,
    rel_tol: float = 1e-6,
    n_cap: NPair = 1024,
    spectrum: bool = True,
) -> PurityReport:
    """Refine the grid by doubling until purity changes by less than rel_tol.

    Relative tolerance on successive differences; the settings are checked
    by :func:`check_ladder`. If the per-axis node caps are hit first, the
    last result is returned with ``converged = False``. The Schmidt
    spectrum of the final grid is computed only if ``spectrum`` is true.
    """
    check_ladder(rel_tol, (grid.n1, grid.n2), n_cap)
    cap1, cap2 = _as_pair(n_cap)

    trace = []
    prev: Optional[float] = None
    err = float("nan")
    converged = False
    while True:
        wam = discretize(wavefn, grid)
        purity, _ = purity_from_matrix(wam, spectrum=False)
        trace.append((grid.n1, grid.n2, purity))
        if prev is not None:
            err = abs(purity - prev) / max(abs(purity), 1e-300)
            if err <= rel_tol:
                converged = True
                break
        nxt = grid.doubled(cap1, cap2)
        if nxt == grid:
            break
        prev = purity
        grid = nxt

    oob = None
    oob_fn = getattr(wavefn, "incident_oob_mask", None)
    if oob_fn is not None:
        mask = oob_fn(wam.nodes1[:, None], wam.nodes2[None, :])
        oob = float(np.sum(np.abs(wam.a[mask]) ** 2) / wam.norm_sq)

    return PurityReport(
        purity=purity,
        schmidt_spectrum=_schmidt_spectrum(wam) if spectrum else None,
        grid_n=(grid.n1, grid.n2),
        refinement_error=err,
        converged=converged,
        norm_sq=wam.norm_sq,
        refinements=tuple(trace),
        oob_weight=oob,
    )


def window_for_mode(
    state: GaussianInState, mode: Mode, nsig: float = 8.0
) -> Tuple[AxisWindow, AxisWindow]:
    """Axis-aligned bounding box of the mode's +-nsig covariance ellipse."""
    center = mode_center(state, mode)
    cov = mode_covariance(state, mode)
    hw = nsig * np.sqrt(np.diag(cov))
    return AxisWindow(center[0], float(hw[0])), AxisWindow(center[1], float(hw[1]))


def mode_grid(
    state: GaussianInState, mode: Mode, n: NPair = 64, nsig: float = 8.0
) -> GridSpec:
    n1, n2 = _as_pair(n)
    w1, w2 = window_for_mode(state, mode, nsig)
    return GridSpec(n1=n1, n2=n2, window1=w1, window2=w2)


def joint_grid(state: GaussianInState, n: NPair = 256, nsig: float = 8.0) -> GridSpec:
    """Single grid whose windows cover both the in and reflected lobes."""
    n1, n2 = _as_pair(n)
    win_in = window_for_mode(state, Mode.IN, nsig)
    win_rf = window_for_mode(state, Mode.REFLECTED_IN, nsig)
    windows = []
    for wi, wr in zip(win_in, win_rf):
        lo = min(wi.center - wi.halfwidth, wr.center - wr.halfwidth)
        hi = max(wi.center + wi.halfwidth, wr.center + wr.halfwidth)
        windows.append(AxisWindow(0.5 * (lo + hi), 0.5 * (hi - lo)))
    return GridSpec(n1=n1, n2=n2, window1=windows[0], window2=windows[1])


def jacobi_grid(
    state: GaussianInState,
    n: NPair = 64,
    nsig: float = 8.0,
    symmetric_q: bool = False,
) -> GridSpec:
    """Grid in (total, relative) momenta for the same state.

    ``symmetric_q`` widens the q window to [-(k + nsig*sigma_q), +...] so a
    grid can hold both the incident lobe at +k and its reflection at -k.
    """
    n1, n2 = _as_pair(n)
    sp = float(np.hypot(state.sigma1, state.sigma2))
    sq = state.sigma_q
    p_win = AxisWindow(0.0, nsig * sp)
    if symmetric_q:
        q_win = AxisWindow(0.0, state.k + nsig * sq)
    else:
        q_win = AxisWindow(state.k, nsig * sq)
    return GridSpec(n1=n1, n2=n2, window1=p_win, window2=q_win)


def purity_out(
    state: GaussianInState,
    model: AmplitudeModel,
    rel_tol: float = 1e-6,
    base_n: NPair = 64,
    n_cap: NPair = 1024,
    nsig: float = 8.0,
    overlap_n: NPair = 256,
    spectrum: bool = True,
) -> PurityReport:
    """Purity of the full out-state via the two-branch mode split.

    Each branch converges on its own window; branch purities recombine as
    w_t^2 * p_t + w_r^2 * p_r with w = branch norm / total norm. The overlap
    |<transmitted|reflected>| is evaluated on a joint grid as a diagnostic of
    the split's validity. A branch with exactly zero weight (hard core
    transmission) contributes nothing and is marked absent via a None
    sub-report. All settings are checked by :func:`check_ladder` first.
    With ``spectrum`` false neither branch runs its final eigensolve and the
    report's spectra are None.
    """
    check_ladder(rel_tol, base_n, n_cap, overlap_n)
    tra = ModeWavefunction(Mode.TRANSMITTED, state, model)
    ref = ModeWavefunction(Mode.REFLECTED, state, model)

    reports = {}
    for name, mode_fn, mode in (("tra", tra, Mode.TRANSMITTED), ("ref", ref, Mode.REFLECTED)):
        try:
            reports[name] = purity_adaptive(
                mode_fn, mode_grid(state, mode, base_n, nsig), rel_tol, n_cap, spectrum
            )
        except ZeroWavefunctionError:
            reports[name] = None

    rep_t, rep_r = reports["tra"], reports["ref"]
    if rep_t is None and rep_r is None:
        raise ZeroWavefunctionError("both scattering branches vanish")

    n_t = rep_t.norm_sq if rep_t is not None else 0.0
    n_r = rep_r.norm_sq if rep_r is not None else 0.0
    w_t = n_t / (n_t + n_r)
    w_r = 1.0 - w_t

    purity_tra = w_t**2 * (rep_t.purity if rep_t is not None else 0.0)
    purity_ref = w_r**2 * (rep_r.purity if rep_r is not None else 0.0)

    lam = None
    if spectrum:
        parts = [w * r.schmidt_spectrum for w, r in ((w_t, rep_t), (w_r, rep_r)) if r is not None]
        lam = np.sort(np.concatenate(parts))[::-1]

    jg = joint_grid(state, overlap_n, nsig)
    x1, w1 = axis_nodes(jg.n1, jg.window1)
    x2, w2 = axis_nodes(jg.n2, jg.window2)
    pm = PairMomentum(x1[:, None], x2[None, :])
    amp = eval_amplitudes(state, model, pm)  # shared by both branches
    tv = amp.t * eval_in(state, pm)
    rv = amp.r * eval_reflected_in(state, pm)
    overlap = abs(np.sum(w1[:, None] * w2[None, :] * np.conj(tv) * rv))

    live = [r for r in (rep_t, rep_r) if r is not None]
    return PurityReport(
        purity=purity_tra + purity_ref,
        schmidt_spectrum=lam,
        grid_n=(
            max(r.grid_n[0] for r in live),
            max(r.grid_n[1] for r in live),
        ),
        refinement_error=max(r.refinement_error for r in live),
        converged=all(r.converged for r in live),
        norm_sq=n_t + n_r,
        refinements=tuple(tr for r in live for tr in r.refinements),
        oob_weight=max(r.oob_weight for r in live),
        purity_tra=purity_tra,
        purity_ref=purity_ref,
        overlap=float(overlap),
        tra_report=rep_t,
        ref_report=rep_r,
    )


def purity_pq_adaptive(
    state: GaussianInState,
    model: Optional[AmplitudeModel] = None,
    rel_tol: float = 1e-6,
    base_n: NPair = 64,
    n_cap: NPair = 1024,
    nsig: float = 8.0,
) -> PurityReport:
    """(total, relative)-momentum purity, refined adaptively on automatic windows.

    Scattering leaves this quantity untouched: the S operator is local in the
    (p, q) tensor structure, so in- and out-states share it. With a model the
    out-state is evaluated on a q window symmetric about 0 (both lobes);
    without one, the in-state on its incident lobe.
    """
    obj: Union[GaussianInState, ModeWavefunction]
    if model is None:
        obj = state
    else:
        obj = ModeWavefunction(Mode.OUT, state, model)
    grid = jacobi_grid(state, base_n, nsig, symmetric_q=model is not None)
    return purity_adaptive(
        lambda P, Q: eval_in_jacobi(obj, JacobiMomentum(P, Q)), grid, rel_tol, n_cap
    )
