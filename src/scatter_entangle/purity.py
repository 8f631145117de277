"""Purity of the one-particle reduced density matrix, by quadrature and a Gram matrix.

A two-particle momentum wave function sampled on a tensor Gauss-Legendre
grid, with quadrature weights folded in as A[i, j] = sqrt(w1_i * w2_j) *
phi(p1_i, p2_j), turns the purity integral into matrix algebra. With G the
smaller of the Gram matrices A^H A and A A^H (Hermitian, the size of A's
shorter side),

    purity = Tr(G^2) / Tr(G)^2 = ||G||_F^2 / Tr(G)^2,

and the eigenvalues of G over Tr(G) are the Schmidt weights lambda, with
purity = sum(lambda^2). Refinement levels need only the purity. The
spectrum is computed once, from the last level's G, and only when the
caller asks for it (``spectrum=True``, the default); the CLI sweep prints no
spectrum and does not ask for it. It comes from a diagonally pivoted
Cholesky factorization G = L L^H + S, stopped once Tr S <= 4 eps Tr G, and
one eigensolve of the r x r matrix L^H L, where r is G's numerical rank
(on the criterion-10 branches, 244 to 259 for the four final G that are
1024 wide, where the factorization takes about 30 ms against 0.31 s for a
dense ``eigvalsh``, and 3 to 142 for the other 44, 128 to 512 wide). Each
weight is then low by at most Tr S / Tr G <= 4 eps, below the roundoff of
a dense eigensolve; the weights past r are reported as zeros, so the
spectrum keeps length n. At full rank the factorization is the slower route:
0.65-0.76 s against 0.25-0.33 s for a dense ``eigvalsh`` at n = 1024
(2-core x86-64, OpenBLAS).

A is sampled in blocks of whole rows, about 2^15 nodes each, written into
one preallocated array, so the wave function's temporaries stay in cache
and the peak memory of sampling is little more than A itself. Wave
functions must therefore be pointwise: each sample depends only on its own
(p1, p2). The package's modes evaluate one formula for any input shape,
so a block gets the bits it would get from one call on the whole grid
once every block of a multi-block grid holds at least 2^15 nodes (see
:func:`discretize`). Samples whose real or imaginary part lies below
2^-511 in magnitude are stored as zeros, so that no product of two
samples in the Gram matrix is subnormal: subnormal arithmetic takes a slow
path in the CPU, and tilted reflected windows, whose corners lie hundreds
of e-folds down the Gaussian tail, held enough such samples to double the
time of a 512^2 Gram matrix.
A real A, as the hard core's reflected branch samples, gets its Gram matrix
and spectrum in real arithmetic.

Windows are decided here and nowhere else. A mode's lobe is centered on
(k, -k), or on (-k, k) for the reflected modes, with the in-state's
covariance diag(sigma1^2, sigma2^2) or its congruence R Sigma R^T under
the reflection map R; its window spans a fixed +-8 sigma per axis, so
that the truncated tails (1.2e-15 of |phi|^2 per axis) lie far below the
tightest refinement tolerance, 1e-10. :func:`mode_grid` covers one lobe
and refuses ``Mode.OUT``; :func:`joint_grid` covers both.
:func:`purity_pq_adaptive` builds its own grid in (total, relative)
momenta and samples the state or out-mode there by calling it at the
corresponding pair momenta. Grids refine by doubling both axes until
the error estimate of the reported purity meets rel_tol; hitting the node
cap without convergence is reported, never silent.

The out-state is handled as two single-mode ladders, recombined as
w_t^2 * p_t + w_r^2 * p_r with weights w = n_mode / (n_tra + n_ref). The
ladders are refined as one, against the error of that total rather than of each branch
(QUADPACK's global error budget, Piessens et al. 1983): the estimate sums
each branch's weighted successive changes of purity and norm, and only the
branch with the largest share is doubled. Near a resonance the transmitted
branch carries about 1e-4 of the total, so it stops several levels before
its own purity would meet rel_tol. With one ladder the estimate is the
successive relative difference of its purity.

A change measures the error of the level before the one it leads to, and
Gauss-Legendre converges geometrically on these analytic integrands, so a
ladder's last level often only confirms the one before it. Where the raw
estimate misses rel_tol, a second one is tried: purity and norm changes
whose last two ratios both lie below 1/2 are each read as the tail
|d_n| rho / (1 - rho), rho = |d_n / d_{n-1}|, of a geometric series, and
the ladders stop one level early if that estimate meets rel_tol. Asking
for two ratios follows Laurie's conditions for trusting an extrapolated
error estimate (BIT 23, 258, 1983); QUADPACK likewise sharpens its raw
estimates by a heuristic. The branch to double is still picked by raw
share. On the reference sweep this stops 7 of 24 rows at 512^2 instead of
1024^2, and 3 of criterion 10's 24 points at 1024x512 instead of
2048x1024. Each branch's sub-report judges its own changes by the same
rule, raw first. Neither estimate is a bound (see :func:`_refine`).

The split drops the one-particle cross terms between the branches, which
matter once the packets' momentum ranges overlap: at mu1 = 0.2, sigma =
(0.3, 0.1) k and a delta at k = b the split is 2.8e-4 (relative) below the
purity of the out-mode sampled on one joint grid. ``converged`` does not
bound these terms, and neither does the overlap |<t|r>| that
:func:`purity_out` reports (5.3e-6 in the case above).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .kinematics import JacobiMomentum, PairMomentum, jacobi_to_pair, reflect_momenta
from .wavefunction import _REVERSED_INCIDENT, GaussianInState, Mode, ModeWavefunction
from .amplitudes import AmplitudeModel

__all__ = [
    "AxisWindow",
    "GridSpec",
    "WeightedAmplitudeMatrix",
    "PurityReport",
    "ZeroWavefunctionError",
    "discretize",
    "purity_from_matrix",
    "purity_adaptive",
    "purity_out",
    "purity_pq_adaptive",
    "mode_grid",
    "joint_grid",
]

NPair = Union[int, Sequence[int]]


class ZeroWavefunctionError(ValueError):
    """The sampled wave function vanished on the grid: its squared norm is
    zero, or so small that its square underflows the normal doubles."""


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

    a[i, j] = sqrt(w1_i * w2_j) * phi(nodes1[i], nodes2[j]), with w1 and w2
    the quadrature weights of the two axes, so that ||a||_F^2 approximates
    the squared norm of phi on the window.
    """

    nodes1: np.ndarray
    nodes2: np.ndarray
    a: np.ndarray

    @cached_property
    def gram(self) -> np.ndarray:
        """The smaller Gram matrix, A^H A or A A^H; formed once per matrix.

        Real if A is: real samples (a real amplitude times a real Gaussian)
        need a quarter of the flops of a complex product.
        """
        a = self.a
        if not a.imag.any():
            a = a.real.copy()
            return a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
        return a.conj().T @ a if a.shape[0] >= a.shape[1] else a @ a.conj().T

    @property
    def norm_sq(self) -> float:
        """||A||_F^2 = Tr(G)."""
        return float(np.trace(self.gram).real)


# Nodes per sampling block: a block's complex temporaries (512 KiB each) fit
# together in a core's L2 cache instead of streaming grid-sized arrays
# through DRAM. On a 2-core x86-64 machine with 2 MiB of L2 per core, 2^15
# sampled the reference sweep's 512^2 and 1024^2 double-delta branches
# faster than 2^16 or 2^17.
_BLOCK_NODES = 1 << 15

# Parts of samples below this magnitude are stored as zeros. At 2^-511, the
# square root of the smallest normal double, no product of two stored parts
# is subnormal. The package's wave functions are normalized, so their
# weighted samples peak far above it; a matrix that peaks below 2^-256
# would already lose ||G||_F^2 to underflow.
_TINY = float(np.finfo(float).tiny)
_FLUSH_BELOW = float(np.sqrt(_TINY))


def discretize(
    wavefn: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: GridSpec
) -> WeightedAmplitudeMatrix:
    """Sample ``wavefn(P1, P2)`` on the grid and fold in quadrature weights.

    ``wavefn`` is called on blocks of whole rows, ``wavefn(x1[rows, None],
    x2[None, :])``, and each weighted block is written into its slice of one
    preallocated n1 x n2 array; so ``wavefn`` must be pointwise, each sample
    depending only on its own (p1, p2). A block holds about 2^15 nodes, and
    a grid that small is one block. Every block of a multi-block grid holds
    at least 2^15 nodes, so its complex temporaries lie above numpy's
    256 KiB temporary-elision threshold, as the whole grid's do; elision
    reorders the operands of a complex product, which moves last bits. So
    the samples are bitwise those of one call on the whole grid. Node
    counts are powers of two, so a grid of more than one block splits into
    equal blocks of max(1, 2^15 / n2) rows.

    Weighted samples whose real or imaginary part lies below 2^-511 in
    magnitude have that part set to zero (``_FLUSH_BELOW``), so that the
    Gram matrix is formed without subnormal arithmetic.

    Aborts with diagnostics if any sample is non-finite, giving the whole
    grid's count and the first bad node; purity downstream would silently
    turn into NaN otherwise.
    """
    x1, w1 = axis_nodes(grid.n1, grid.window1)
    x2, w2 = axis_nodes(grid.n2, grid.window2)
    sw1, sw2 = np.sqrt(w1)[:, None], np.sqrt(w2)[None, :]
    a = np.empty((grid.n1, grid.n2), dtype=complex)
    rows = max(1, _BLOCK_NODES // grid.n2)
    n_bad, first_bad = 0, None
    for r0 in range(0, grid.n1, rows):
        blk = slice(r0, r0 + rows)
        out = a[blk]
        vals = np.asarray(wavefn(x1[blk, None], x2[None, :]), dtype=complex)
        if vals.shape != out.shape:
            raise ValueError(
                f"wave function returned shape {vals.shape}, expected {out.shape}"
            )
        bad = ~np.isfinite(vals)
        if np.any(bad):
            n_bad += np.count_nonzero(bad)
            if first_bad is None:
                i, j = np.argwhere(bad)[0]
                first_bad = x1[r0 + i], x2[j]
        np.multiply(sw1[blk] * sw2, vals, out=out)
        parts = out.view(float)  # real and imaginary parts, interleaved
        parts *= np.abs(parts) >= _FLUSH_BELOW
    if n_bad:
        raise FloatingPointError(
            f"{n_bad} non-finite samples on {grid.n1}x{grid.n2} grid, "
            f"first at (p1, p2) = ({first_bad[0]:.6g}, {first_bad[1]:.6g})"
        )
    return WeightedAmplitudeMatrix(nodes1=x1, nodes2=x2, a=a)


def purity_from_matrix(
    wam: WeightedAmplitudeMatrix, spectrum: bool = True
) -> Tuple[float, Optional[np.ndarray]]:
    """(purity, Schmidt spectrum) from the Gram matrix G of the samples.

    purity = ||G||_F^2 / Tr(G)^2, computed before and independently of the
    spectrum. The spectrum, G's eigenvalues in descending order, clipped at
    0 and normalized to sum to 1, is computed only when ``spectrum`` is true
    (None otherwise), so that a refinement ladder pays for it once rather
    than once per level. It comes from a pivoted Cholesky factor of G with
    r columns, r being G's numerical rank, and an r x r eigensolve: each
    weight is low by at most 4 eps, and the n - r weights past the rank are
    exact zeros. Checked in the test suite against the singular values of
    A, a dense eigensolve of G and an O(N^4) direct contraction of the
    purity integral.

    Raises :class:`ZeroWavefunctionError` once Tr(G)^2 falls below the
    smallest normal double (Tr(G) below 1.5e-154): ||G||_F^2 <= Tr(G)^2 is
    then subnormal or zero, and the purity loses digits (4e-6 relative at
    Tr(G) = 1e-158) or is 0/0. Raises FloatingPointError once Tr(G)^2
    overflows (Tr(G) above 1.3e154), which only a grid that does not
    resolve the wave function samples.
    """
    norm_sq = wam.norm_sq
    try:
        norm_sq_sq = norm_sq**2
    except OverflowError:
        raise FloatingPointError(
            f"wave function not resolved on the grid (squared norm {norm_sq:.3g})"
        ) from None
    if norm_sq_sq < _TINY:
        raise ZeroWavefunctionError(f"wave function vanishes (squared norm {norm_sq:.3g})")
    purity = float(np.sum(np.abs(wam.gram) ** 2)) / norm_sq_sq
    return purity, _schmidt_spectrum(wam.gram) if spectrum else None


def _schmidt_spectrum(g: np.ndarray) -> np.ndarray:
    """Schmidt weights, descending, from a pivoted Cholesky factor of G.

    Diagonally pivoted Cholesky (Higham, in Reliable Numerical Computation,
    1990; Harbrecht, Peters & Schneider, Appl. Numer. Math. 62, 428, 2012)
    writes G = L L^H + S with S positive semidefinite and stops once
    Tr S <= 4 eps Tr G. The nonzero eigenvalues
    of L L^H are those of the r x r matrix L^H L, so the eigensolve costs
    O(r^3) and the factor O(n r^2), for rank r of the n x n matrix G. By
    Weyl's inequality each weight is low by at most Tr S / Tr G <= 4 eps,
    and the weights dropped by the stop sum to exactly that. The weights
    past r are zero, so the spectrum keeps its length n.
    """
    n = g.shape[0]
    d = g.diagonal().real.copy()  # diagonal of the Schur complement S
    stop = 4.0 * np.finfo(float).eps * d.sum()
    # row k holds column k of L; np.empty leaves the pages of unwritten rows
    # untouched, so the factor occupies r/n of G's memory
    rows = np.empty_like(g)
    r = 0
    while r < n and d.sum() > stop:
        p = int(np.argmax(d))
        col = g[p].conj() - rows[:r, p].conj() @ rows[:r]
        col /= np.sqrt(d[p])
        rows[r] = col
        d -= col.real**2 + col.imag**2
        d[p] = 0.0
        r += 1
    lam = np.zeros(n)
    lam[:r] = np.linalg.eigvalsh(rows[:r] @ rows[:r].conj().T)[::-1]
    # eigvalsh leaves roundoff-sized negative weights on rank-deficient factors
    np.clip(lam, 0.0, None, out=lam)
    return lam / lam.sum()


# leading Schmidt weights that PurityReport.as_dict writes out
_SPECTRUM_HEAD = 128


@dataclass(frozen=True)
class PurityReport:
    """Result of an adaptive purity computation.

    ``refinements`` traces (n1, n2, purity) per grid; ``refinement_error``
    is the estimated relative error of ``purity``, NaN when only one grid
    ran, and ``converged`` says it met rel_tol before the node caps. For one
    ladder the estimate is the last successive relative difference or,
    where that misses rel_tol and the last two ratios of the ladder's
    changes lie below 1/2, the tail of their geometric series, if that meets
    rel_tol (see :func:`_refine`). For out-state reports the branch fields
    are populated, ``purity = purity_tra + purity_ref``, ``refinements``
    lists the transmitted levels and then the reflected ones, and the
    estimate is the total's (see :func:`purity_out`), while ``tra_report``
    and ``ref_report`` keep each branch's own estimate, by the same raw-first
    rule, and ``converged``. ``schmidt_spectrum`` holds
    one weight per row of the final grid's Gram matrix, descending; the
    weights past its numerical rank are exact zeros, and the others are low
    by at most 4 eps (pivoted Cholesky, see :func:`purity_from_matrix`). It
    is None when the computation ran with ``spectrum=False``, which skips
    the factorization of the final grid and leaves every other field
    unchanged.
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

    def as_dict(self) -> dict:
        err = self.refinement_error
        lam = self.schmidt_spectrum
        head = None if lam is None else [float(v) for v in lam[:_SPECTRUM_HEAD]]
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
            d["tra"] = self.tra_report.as_dict()
        if self.ref_report is not None:
            d["ref"] = self.ref_report.as_dict()
        return d


def _as_pair(n: NPair) -> Tuple[int, int]:
    if isinstance(n, (tuple, list)):  # a list is how JSON configs spell a pair
        return int(n[0]), int(n[1])
    return int(n), int(n)


# the ladder's defaults: rel_tol, starting nodes per axis and node cap per
# axis; every function here that runs or sizes a ladder takes them from this line
_REL_TOL, _BASE_N, _N_CAP = 1e-6, 64, 1024


def check_ladder(rel_tol: float = _REL_TOL, base_n: NPair = _BASE_N, n_cap: NPair = _N_CAP) -> dict:
    """The refinement ladder's settings, checked; ValueError if it cannot run them.

    This is the one place that states the settings' defaults, in its
    signature, and their range. rel_tol must lie in [1e-10, 0.1]: below
    1e-10 is unreachable (roundoff floor of the quadrature purity), a NaN is
    never met, and above 0.1 a converged purity could be wrong in its first
    digit. Per axis, the starting node count and its cap must be powers of
    two >= 32, given as one number or an (n1, n2) pair, and the cap must not
    lie below the start.
    Messages name the setting and the axis. Returns the settings as a dict of
    ``rel_tol``, ``base_n`` and ``n_cap``, each as given, which are keyword
    arguments of :func:`purity_out`.
    """
    if not rel_tol >= 1e-10:
        raise ValueError(f"rel_tol must be at least 1e-10, got {rel_tol}")
    if not rel_tol <= 0.1:
        raise ValueError(f"rel_tol must be at most 0.1, got {rel_tol}")
    for axis, n0, cap in zip(("n1", "n2"), _as_pair(base_n), _as_pair(n_cap)):
        _check_n(n0, f"base_n for {axis}")
        _check_n(cap, f"n_cap for {axis}")
        if cap < n0:
            raise ValueError(f"n_cap for {axis} = {cap} below base_n = {n0}")
    return {"rel_tol": rel_tol, "base_n": base_n, "n_cap": n_cap}


class _Ladder:
    """One wave function's refinement ladder, holding only its last level's numbers.

    ``d_purity`` and ``d_norm`` are the last three changes between levels,
    oldest first, NaN where the ladder has fewer levels. :meth:`sample`
    reduces each level as it is drawn to what the ladder and its report read
    of it: purity, norm, oob weight and, for a spectrum, the Gram matrix G.
    So no ladder holds samples A past the level that drew them.
    """

    def __init__(self, wavefn, grid: GridSpec, n_cap: NPair, spectrum: bool) -> None:
        self.wavefn, self.grid, self.caps, self.spectrum = wavefn, grid, _as_pair(n_cap), spectrum
        self.trace = []
        self.purity = self.norm_sq = float("nan")
        self.d_purity = self.d_norm = (float("nan"),) * 3
        self.gram = self.oob = None

    def sample(self) -> None:
        self.gram = None  # the last level's G would otherwise outlive the next A
        wam = discretize(self.wavefn, self.grid)
        purity, _ = purity_from_matrix(wam, spectrum=False)
        self.d_purity = self.d_purity[1:] + (purity - self.purity,)
        self.d_norm = self.d_norm[1:] + (wam.norm_sq - self.norm_sq,)
        self.purity, self.norm_sq = purity, wam.norm_sq
        self.trace.append((self.grid.n1, self.grid.n2, purity))
        oob_fn = getattr(self.wavefn, "incident_oob_mask", None)
        mask = None if oob_fn is None else oob_fn(wam.nodes1[:, None], wam.nodes2[None, :])
        if mask is not None:
            self.oob = float(np.sum(np.abs(wam.a[mask]) ** 2) / wam.norm_sq)
        if self.spectrum:
            self.gram = wam.gram

    def can_double(self) -> bool:
        return self.grid.doubled(*self.caps) != self.grid

    def report(self, rel_tol: float) -> PurityReport:
        """This ladder alone, judged by its own changes as :func:`_estimate` judges a total."""
        err = _estimate([self], rel_tol)[0]
        return PurityReport(
            purity=self.purity,
            schmidt_spectrum=_schmidt_spectrum(self.gram) if self.spectrum else None,
            grid_n=(self.grid.n1, self.grid.n2),
            refinement_error=err,
            converged=bool(err <= rel_tol),
            norm_sq=self.norm_sq,
            refinements=tuple(self.trace),
            oob_weight=self.oob,
        )


def _weights(ladders: Sequence[_Ladder]) -> list:
    """Each ladder's share of the total norm, the last one taken as the rest."""
    total = sum(lad.norm_sq for lad in ladders)
    w = [lad.norm_sq / total for lad in ladders[:-1]]
    return w + [1.0 - sum(w)]


# A ladder's changes count as geometric once two successive ratios lie below this
_RATIO = 0.5


def _last_change(d: Tuple[float, float, float]) -> float:
    return abs(d[-1])


def _geometric_tail(d: Tuple[float, float, float]) -> float:
    """|d_n| rho / (1 - rho), rho = |d_n / d_{n-1}|, if also |d_{n-1} / d_{n-2}| < 1/2.

    Otherwise |d_n|, as for a zero or unknown earlier change.
    """
    d2, d1, d0 = d
    if d1 != 0.0 and d2 != 0.0:
        rho = abs(d0 / d1)
        if rho < _RATIO and abs(d1 / d2) < _RATIO:
            return abs(d0) * rho / (1.0 - rho)
    return abs(d0)


def _shares(ladders: Sequence[_Ladder], change: Callable) -> list:
    """Each ladder's share of the total's relative error, ``change`` read from its changes."""
    w = _weights(ladders)
    n = sum(lad.norm_sq for lad in ladders)
    total = sum(wb**2 * lad.purity for wb, lad in zip(w, ladders))
    return [
        (wb**2 * change(lad.d_purity) + 2.0 * abs(wb * lad.purity - total) * change(lad.d_norm) / n)
        / total
        for wb, lad in zip(w, ladders)
    ]


def _estimate(ladders: Sequence[_Ladder], rel_tol: float) -> Tuple[float, list]:
    """(error estimate of the total sum(w^2 p), each ladder's raw share).

    The raw estimate sums the shares read from each ladder's last changes.
    Only where it misses rel_tol is the geometric estimate tried, the shares
    read through :func:`_geometric_tail`; it is returned if it meets rel_tol.
    """
    raw = _shares(ladders, _last_change)
    est = sum(raw)
    if est > rel_tol:
        geo = sum(_shares(ladders, _geometric_tail))
        if geo <= rel_tol:
            return geo, raw
    return est, raw


def _refine(ladders: Sequence[_Ladder], rel_tol: float) -> float:
    """Refine sampled ladders until the total sum(w^2 p) meets rel_tol.

    The error estimate of the total P = sum_b w_b^2 p_b, with w_b = n_b / N
    and N = sum_b n_b, sums each ladder's share
    (w_b^2 |dp_b| + 2 |w_b p_b - P| |dn_b| / N) / P: the change of its
    purity and, through the weights, of its norm, dP/dn_b being
    2 (w_b p_b - P) / N. Absolute values are summed, so changes that cancel
    cannot stop the refinement. While the estimate exceeds rel_tol, the
    ladder with the largest raw share that is still below its node caps
    doubles its grid; a ladder with one level has an unknown (NaN) share
    and goes first. This is the global error budget of QUADPACK's ``qag``
    (Piessens et al., 1983). With one ladder, w = 1 and the estimate is
    |dp| / p. Returns the estimate: at most rel_tol if the total converged,
    larger or NaN if every ladder reached its caps first.

    The raw estimate reads |dp_b| and |dn_b| as each ladder's last change
    d_n, which measures the error of the level before the reported one.
    Gauss-Legendre converges geometrically on these analytic integrands, so
    where the raw estimate misses rel_tol a second one is tried: a change
    whose last two ratios rho = |d_n / d_{n-1}| and |d_{n-1} / d_{n-2}| both
    lie below 1/2 is read as the tail |d_n| rho / (1 - rho) of a geometric
    series, purity and norm changes each on their own. If that estimate
    meets rel_tol, refinement stops one level early and returns it. Two
    ratios are asked for, not one, after Laurie's conditions for trusting an
    extrapolated error estimate (BIT 23, 258, 1983), as QUADPACK sharpens
    its raw estimates by a heuristic too: on the reference sweep's row
    k = 0.385b one small ratio stopped the transmitted branch at 256^2,
    1.1e-5 from the total. The branch to double is still chosen by raw
    share, so every ladder's levels are a prefix of those the raw estimate
    alone would sample.

    Neither estimate is a bound. On the reference sweep's row k = 0.241b the
    raw estimate reads 6.6e-6 where the reported total lies 7.7e-6 from its
    2048^2 value.
    """
    while True:
        est, shares = _estimate(ladders, rel_tol)
        open_ = [i for i, lad in enumerate(ladders) if lad.can_double()]
        if est <= rel_tol or not open_:
            return est
        i = max(open_, key=lambda i: np.inf if np.isnan(shares[i]) else shares[i])
        ladders[i].grid = ladders[i].grid.doubled(*ladders[i].caps)
        ladders[i].sample()


def purity_adaptive(
    wavefn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    grid: GridSpec,
    rel_tol: float = _REL_TOL,
    n_cap: NPair = _N_CAP,
    spectrum: bool = True,
) -> PurityReport:
    """Refine the grid by doubling until purity changes by less than rel_tol.

    Relative tolerance on successive differences, or on the tail of their
    geometric series once two successive ratios lie below 1/2 (see
    :func:`_refine`); the report's ``refinement_error`` is the estimate
    that stopped the ladder. The settings are checked
    by :func:`check_ladder`. If the per-axis node caps are hit first, the
    last result is returned with ``converged = False``. The Schmidt
    spectrum of the final grid is computed only if ``spectrum`` is true.
    This is the one-ladder case of the refinement that :func:`purity_out`
    runs on two.
    """
    check_ladder(rel_tol, (grid.n1, grid.n2), n_cap)
    ladder = _Ladder(wavefn, grid, n_cap, spectrum)
    ladder.sample()
    _refine([ladder], rel_tol)
    return ladder.report(rel_tol)


# Window half-width in standard deviations of |phi|^2 along each axis. The
# tail of a Gaussian marginal past 8 sigma is erfc(8 / sqrt(2)) = 1.2e-15,
# far below the smallest rel_tol a ladder accepts (1e-10), so no tolerance
# can be met on a truncated window.
_NSIG = 8.0


def _lobe_windows(state: GaussianInState, reflected: bool) -> Tuple[AxisWindow, AxisWindow]:
    """Axis-aligned bounding box of one lobe's +-8 sigma covariance ellipse.

    The incident lobe sits at (k, -k) with covariance Sigma = diag(sigma1^2,
    sigma2^2): amplitude factors only reshuffle weight inside the in-state's
    envelope. The reflected lobe sits at (-k, k) with the congruence
    R Sigma R^T of the reflection map R.
    """
    k = state.k
    cov = np.diag([state.sigma1**2, state.sigma2**2])
    if reflected:
        refl = np.array(reflect_momenta(PairMomentum(*np.eye(2)), state.masses))
        cov, k = refl @ cov @ refl.T, -k
    hw = _NSIG * np.sqrt(np.diag(cov))
    return AxisWindow(k, float(hw[0])), AxisWindow(-k, float(hw[1]))


def mode_grid(state: GaussianInState, mode: Mode, n: NPair = _BASE_N) -> GridSpec:
    """Grid over one lobe's window; ``Mode.OUT`` has two and raises ValueError.

    A grid over both lobes is :func:`joint_grid`.
    """
    if mode is Mode.OUT:
        raise ValueError(
            "the out mode has a transmitted and a reflected lobe; cover both with joint_grid"
        )
    n1, n2 = _as_pair(n)
    w1, w2 = _lobe_windows(state, mode in _REVERSED_INCIDENT)
    return GridSpec(n1=n1, n2=n2, window1=w1, window2=w2)


def joint_grid(state: GaussianInState, n: NPair = 256) -> GridSpec:
    """Single grid whose windows cover both the in and reflected lobes.

    The default of 256 nodes per axis is the grid on which :func:`purity_out`
    samples its overlap diagnostic.
    """
    n1, n2 = _as_pair(n)
    windows = []
    for wi, wr in zip(_lobe_windows(state, False), _lobe_windows(state, True)):
        lo = min(wi.center - wi.halfwidth, wr.center - wr.halfwidth)
        hi = max(wi.center + wi.halfwidth, wr.center + wr.halfwidth)
        windows.append(AxisWindow(0.5 * (lo + hi), 0.5 * (hi - lo)))
    return GridSpec(n1=n1, n2=n2, window1=windows[0], window2=windows[1])


def purity_out(
    state: GaussianInState,
    model: AmplitudeModel,
    rel_tol: float = _REL_TOL,
    base_n: NPair = _BASE_N,
    n_cap: NPair = _N_CAP,
    spectrum: bool = True,
) -> PurityReport:
    """Purity of the full out-state via the two-branch mode split.

    Each branch is integrated on its own window; branch purities recombine
    as w_t^2 * p_t + w_r^2 * p_r with w = branch norm / total norm. The two
    ladders refine as one (see :func:`_refine`): the branch that carries the
    largest raw share of the total's error estimate doubles its grid until
    the estimate meets rel_tol, raw or, where the branches' changes shrink
    geometrically, read as the tail of their series.
    ``refinement_error`` is that estimate and ``converged`` says it met
    rel_tol before the node caps; each branch's sub-report keeps its own
    estimate, by the same raw-first rule on its own changes, and its own
    ``converged``, which a branch with a small weight may leave false. The
    split drops the one-particle cross terms between the branches, which
    matter when the packets' momentum ranges overlap (see the module
    docstring); ``converged`` does not bound those terms. The overlap
    |<transmitted|reflected>| samples both branch wave functions through
    :func:`discretize` on :func:`joint_grid`'s default grid (256 x 256
    nodes over +-8 sigma windows) and takes their weighted inner product; it
    is not a bound on the split's error either. A branch that vanishes in
    the sense of :func:`purity_from_matrix` (the hard core's transmission,
    or a weight below 1.5e-154, whose share w^2 p of the total lies far
    below roundoff) contributes nothing and is marked absent via a None
    sub-report; the overlap is then 0.0 exactly, and no joint grid is
    sampled. All settings are checked by :func:`check_ladder` first. With
    ``spectrum`` false neither branch runs its final eigensolve and the
    report's spectra are None.
    """
    check_ladder(rel_tol, base_n, n_cap)
    ladders = {}
    for mode in (Mode.TRANSMITTED, Mode.REFLECTED):
        fn = ModeWavefunction(mode, state, model)
        lad = _Ladder(fn, mode_grid(state, mode, base_n), n_cap, spectrum)
        try:
            lad.sample()
        except ZeroWavefunctionError:
            continue
        ladders[mode] = lad
    if not ladders:
        raise ZeroWavefunctionError("both scattering branches vanish")

    sampled = list(ladders.values())
    est = _refine(sampled, rel_tol)
    weights = dict(zip(ladders, _weights(sampled)))
    reports = {mode: lad.report(rel_tol) for mode, lad in ladders.items()}
    parts = {mode: weights[mode] ** 2 * rep.purity for mode, rep in reports.items()}
    purity_tra, purity_ref = (parts.get(m, 0.0) for m in (Mode.TRANSMITTED, Mode.REFLECTED))

    lams = [weights[m] * r.schmidt_spectrum for m, r in reports.items()] if spectrum else None

    overlap = 0.0  # an absent branch overlaps nothing; no grid is sampled
    if len(sampled) == 2:
        jg = joint_grid(state)
        overlap = abs(np.vdot(*(discretize(lad.wavefn, jg).a for lad in sampled)))

    live = reports.values()
    return PurityReport(
        purity=purity_tra + purity_ref,
        schmidt_spectrum=np.sort(np.concatenate(lams))[::-1] if spectrum else None,
        grid_n=tuple(max(n) for n in zip(*(r.grid_n for r in live))),
        refinement_error=est,
        converged=bool(est <= rel_tol),
        norm_sq=sum(r.norm_sq for r in live),
        refinements=tuple(tr for r in live for tr in r.refinements),
        oob_weight=max(r.oob_weight for r in live),
        purity_tra=purity_tra,
        purity_ref=purity_ref,
        overlap=float(overlap),
        tra_report=reports.get(Mode.TRANSMITTED),
        ref_report=reports.get(Mode.REFLECTED),
    )


def purity_pq_adaptive(
    state: GaussianInState,
    model: Optional[AmplitudeModel] = None,
    rel_tol: float = _REL_TOL,
    base_n: NPair = _BASE_N,
    n_cap: NPair = _N_CAP,
) -> PurityReport:
    """(total, relative)-momentum purity, refined adaptively on automatic windows.

    Scattering leaves this quantity untouched: the S operator is local in the
    (p, q) tensor structure, so in- and out-states share it. The out-state
    at (p, q) is t(|q|) phi(p, q) + r(|q|) phi(p, -q), since reflecting the
    pair momenta of (p, q) lands exactly on (p, -q). The p window spans
    +-8 sqrt(sigma1^2 + sigma2^2) about 0. With a model the out-state is
    evaluated on the q window [-(k + 8 sigma_q), k + 8 sigma_q], which holds
    both lobes; without one, the in-state on its incident lobe, k +- 8 sigma_q.
    """
    obj: Union[GaussianInState, ModeWavefunction]
    if model is None:
        obj, q_win = state, AxisWindow(state.k, _NSIG * state.sigma_q)
    else:
        obj = ModeWavefunction(Mode.OUT, state, model)
        q_win = AxisWindow(0.0, state.k + _NSIG * state.sigma_q)
    p_win = AxisWindow(0.0, _NSIG * float(np.hypot(state.sigma1, state.sigma2)))
    n1, n2 = _as_pair(base_n)
    return purity_adaptive(
        lambda P, Q: obj(*jacobi_to_pair(JacobiMomentum(P, Q), state.masses)),
        GridSpec(n1=n1, n2=n2, window1=p_win, window2=q_win),
        rel_tol,
        n_cap,
    )
