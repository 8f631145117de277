"""Purity of the one-particle reduced density matrix, by quadrature and a Gram matrix.

A two-particle momentum wave function sampled on a tensor midpoint grid,
with the rule's weight folded in as A[i, j] = sqrt(h1 h2) phi(p1_i, p2_j),
turns the purity integral into matrix algebra. With G the smaller Gram
matrix of A, purity = ||G||_F^2 / Tr(G)^2, and the eigenvalues of G over
Tr(G) are the Schmidt weights. Each rule of the engine is stated once, at
the name that implements it:

- windows: ``_NSIG`` and :func:`_lobe_windows`; :func:`mode_grid` covers
  one lobe and :func:`joint_grid` both, and :func:`_commensurate` widens
  one window so that the grid's relative momenta lie on a lattice;
- nodes: :func:`axis_nodes`, the midpoint rule;
- sampling: :func:`discretize`, in blocks of ``_BLOCK_NODES`` nodes, with
  parts below ``_FLUSH_BELOW`` stored as zeros, and a scattering mode's
  amplitudes taken once per level on :func:`_q_lattice`;
- the Gram matrix: :meth:`WeightedAmplitudeMatrix.gram`;
- purity and spectrum: :func:`purity_from_matrix` and :func:`_schmidt_spectrum`;
- the refinement ladders: :func:`check_ladder` for their settings and
  :func:`_refine` for their stopping rule, which reads each ladder's one
  list of changes, a first level's check on its every-other-node subgrid
  as its entry;
- the out-state's branch split and its ``converged``: :func:`purity_out`;
- the two 1-D integrals over q, which sample no grid: :func:`_branch_overlap`
  and :func:`_oob_tails`.

:func:`purity_adaptive` runs one ladder over any pointwise callable, and
:func:`purity_pq_adaptive` one in (total, relative) momenta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kinematics import JacobiMomentum, PairMomentum, jacobi_to_pair, reflect_momenta
from .wavefunction import _NEEDS_MODEL, _REVERSED_INCIDENT, GaussianInState, Mode, ModeWavefunction
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
    """Tensor midpoint grid: n1 x n2 nodes over two axis windows (see :func:`axis_nodes`).

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


def axis_nodes(n: int, window: AxisWindow) -> Tuple[np.ndarray, float]:
    """Midpoint rule on the window: n cells of width h = 2 halfwidth / n, a node at each center.

    Returns the nodes x_i = center - halfwidth + h (i + 1/2) and their common
    weight h, which n, a power of two, leaves exact. The ladders' integrands
    are analytic and have fallen to 1e-15 of their peak, with all their
    derivatives, at both window ends, so the rule converges geometrically,
    as the trapezoidal rule does on a periodic integrand (Trefethen &
    Weideman, SIAM Rev. 56, 385, 2014): the endpoint corrections of
    Euler-Maclaurin are no larger than the truncated tails. Equispaced
    nodes also put the relative momenta of a commensurate grid on a
    lattice (see :func:`_q_lattice`).
    """
    h = 2.0 * window.halfwidth / n
    return window.center - window.halfwidth + h * (np.arange(n) + 0.5), h


# Columns per block row of a complex Gram matrix (see WeightedAmplitudeMatrix.gram)
_GRAM_BLOCK = 128


@dataclass(frozen=True)
class WeightedAmplitudeMatrix:
    """Wave-function samples with quadrature weights folded in.

    a[i, j] = sqrt(h1 h2) * phi(x1_i, x2_j), with x1, x2 the nodes and h1,
    h2 the midpoint rule's weights on the two axes, so that ||a||_F^2
    approximates the squared norm of phi on the window.
    """

    a: np.ndarray

    @cached_property
    def gram(self) -> np.ndarray:
        """The smaller Gram matrix, A^H A or A A^H up to conjugation; formed once.

        Real if A is: real samples (a real amplitude times a real Gaussian)
        need a quarter of the flops of a complex product. numpy has no
        Hermitian path for ``x.conj().T @ x``, so G = A^H A is formed a
        block row of ``_GRAM_BLOCK`` columns at a time, on and above the
        diagonal only: each panel of A's columns is conjugated into one
        reused buffer and multiplied into its block row, and the block
        column below the diagonal block is filled with that row's exact
        conjugate transpose. This skips up to half the flops and A's full
        conjugated copy, and every element keeps the bits of the one
        product ``a.conj().T @ a``. A wide A (fewer rows than columns)
        goes through the same loop as A^T, which gives conj(A A^H): the
        same purity and, since conjugation commutes with every rounding, a
        bitwise-equal spectrum.
        """
        a = self.a
        if not a.imag.any():
            a = a.real.copy()
        if a.shape[0] < a.shape[1]:
            a = a.T
        n = a.shape[1]
        # the buffer before G, in the order of a conjugated copy and its
        # product: allocated the other way round, the heap layout left the
        # benchmark's median points 3-4x more page faults
        buf = np.empty((a.shape[0], min(n, _GRAM_BLOCK)), dtype=a.dtype)
        g = np.empty((n, n), dtype=a.dtype)
        for s in range(0, n, _GRAM_BLOCK):
            e = min(s + _GRAM_BLOCK, n)
            panel = np.conjugate(a[:, s:e], out=buf[:, : e - s])
            np.matmul(panel.T, a[:, s:], out=g[s:e, s:])
            np.conjugate(g[s:e, e:].T, out=g[e:, s:e])
        return g

    @property
    def norm_sq(self) -> float:
        """||A||_F^2 = Tr(G)."""
        return float(np.trace(self.gram).real)


# Nodes per sampling block (see discretize): a block's complex temporaries
# (512 KiB each) fit together in a core's L2 cache instead of streaming
# grid-sized arrays through DRAM. On a 2-core x86-64 machine with 2 MiB of
# L2 per core, 2^15 sampled the reference sweep's 512^2 and 1024^2
# double-delta branches faster than 2^16 or 2^17.
_BLOCK_NODES = 1 << 15

# Parts of samples below this magnitude are stored as zeros (see
# discretize), so that the Gram matrix is formed without subnormal
# arithmetic, which takes a slow path in the CPU: tilted reflected windows,
# whose corners lie hundreds of e-folds down the Gaussian tail, held enough
# such samples to double the time of a 512^2 Gram matrix. At 2^-511, the
# square root of the smallest normal double, no product of two stored parts
# is subnormal. The package's wave functions are normalized, so their
# weighted samples peak far above it; a matrix that peaks below 2^-256
# would already lose ||G||_F^2 to underflow.
_TINY = float(np.finfo(float).tiny)
_FLUSH_BELOW = float(np.sqrt(_TINY))


def _simplest_fraction(lo: float, hi: float) -> Optional[Tuple[int, int]]:
    """The fraction c/d in [lo, hi] with the smallest c and d; None unless 0 < lo <= hi < inf.

    Its continued fraction is the longest common prefix of those of lo and
    hi, closed by the smallest integer that keeps it inside; the endpoints
    are taken as exact ratios of integers, so the arithmetic is exact.
    """
    if not 0.0 < lo <= hi < math.inf:
        return None
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0  # x = (p1 y + p0) / (q1 y + q0), y in [a/b, c/d]
    while True:
        f = a // b
        if f * b == a or (f + 1) * d <= c:  # [lo, hi] holds an integer, f or f + 1
            f += f * b != a
            return p1 * f + p0, q1 * f + q0
        p0, q0, p1, q1 = p1, q1, p1 * f + p0, q1 * f + q0
        a, b, c, d = d, c - f * d, b, a - f * b  # y -> 1 / (y - f)


# A commensurate grid's ratio of steps in q is recovered from the nodes'
# spacing to this relative precision: its roundoff is a few ulp, and two
# fractions with denominators below 10^5 lie further apart than 10^-10.
_COMMENSURATE_RTOL = 1e-12


def _q_lattice(
    wavefn, x1: np.ndarray, h1: float, x2: np.ndarray, h2: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A scattering mode's (t, r) on the grid's nodes, as views of one 1-D lattice in q.

    The amplitudes depend on the pair momenta only through the relative
    momentum q = mu2 p1 - mu1 p2. On a grid whose q steps along the axes,
    mu2 h1 and mu1 h2, are in the ratio a / b of integers (see
    :func:`_commensurate`), node (i, j) has q = q_max - delta m with
    m = a (n1 - 1 - i) + b j and delta = mu2 h1 / a. The amplitudes are
    taken once, at the a (n1 - 1) + b (n2 - 1) + 1 lattice momenta in
    descending q, from the first row's last node to the last row's first,
    so that each row is a forward slice of stride b: 9,208 momenta on a
    1024^2 transmitted level of the reference sweep. None for any other
    wave function, and where the lattice would hold more momenta than the
    grid has nodes: a grid not built by :func:`mode_grid` or
    :func:`joint_grid`, or one whose width ratio is so extreme that its
    relative momenta are all distinct anyway.
    """
    if not (isinstance(wavefn, ModeWavefunction) and wavefn.mode in _NEEDS_MODEL):
        return None
    mp = wavefn.in_state.masses
    den = mp.mu1 * h2  # may underflow to 0, a ratio beyond the doubles
    x = mp.mu2 * h1 / den if den else math.inf
    ab = _simplest_fraction(x * (1.0 - _COMMENSURATE_RTOL), x * (1.0 + _COMMENSURATE_RTOL))
    if ab is None:
        return None
    a, b = ab
    n1, n2 = len(x1), len(x2)
    m = a * (n1 - 1) + b * (n2 - 1) + 1
    if m > n1 * n2:
        return None
    q_max, q_min = mp.mu2 * x1[-1] - mp.mu1 * x2[0], mp.mu2 * x1[0] - mp.mu1 * x2[-1]
    q = np.arange(m) * ((q_min - q_max) / (m - 1)) + q_max
    q[-1] = q_min
    t, r = wavefn.amplitudes_at(q)
    return tuple(
        as_strided(v[a * (n1 - 1):], (n1, n2), (-a * v.itemsize, b * v.itemsize), writeable=False)
        for v in (t, r)
    )


def discretize(
    wavefn: Callable[[np.ndarray, np.ndarray], np.ndarray], grid: GridSpec
) -> WeightedAmplitudeMatrix:
    """Sample ``wavefn(P1, P2)`` on the grid's midpoint nodes and fold in their weight.

    The samples are written in blocks of whole rows, ``_BLOCK_NODES`` = 2^15
    nodes each, into one preallocated n1 x n2 array; a grid that small is
    one block. Node counts are powers of two, so a larger grid splits into
    equal blocks of max(1, 2^15 / n2) rows. A scattering
    :class:`~scatter_entangle.wavefunction.ModeWavefunction` on a grid from
    :func:`mode_grid` or :func:`joint_grid` takes its amplitudes from one
    call on the grid's :func:`_q_lattice`, and each block gathers them as a
    view; within 1e-12 of the peak sample, these are the samples of
    ``wavefn`` itself. Any other ``wavefn`` is called on each block,
    ``wavefn(x1[rows, None], x2[None, :])``, so it must be pointwise, each
    sample depending only on its own (p1, p2). Every block of a multi-block
    grid holds at least 2^15 nodes, so its complex temporaries lie above
    numpy's 256 KiB temporary-elision threshold, as one block of the whole
    grid's would; elision reorders the operands of a complex product, which
    moves last bits. So the samples are bitwise those of one block on the
    whole grid. Every node carries the same weight h1 h2, folded in as one
    scalar sqrt(h1 h2). Weighted samples whose real or imaginary part lies
    below ``_FLUSH_BELOW`` = 2^-511 in magnitude have that part set to zero.

    Aborts with diagnostics if any sample is non-finite, giving the whole
    grid's count and the first bad node; purity downstream would silently
    turn into NaN otherwise.
    """
    x1, h1 = axis_nodes(grid.n1, grid.window1)
    x2, h2 = axis_nodes(grid.n2, grid.window2)
    lattice = _q_lattice(wavefn, x1, h1, x2, h2)
    weight = math.sqrt(h1 * h2)
    a = np.empty((grid.n1, grid.n2), dtype=complex)
    rows = max(1, _BLOCK_NODES // grid.n2)
    n_bad, first_bad = 0, None
    for r0 in range(0, grid.n1, rows):
        blk = slice(r0, r0 + rows)
        out = a[blk]
        p1, p2 = x1[blk, None], x2[None, :]
        if lattice is None:
            vals = wavefn(p1, p2)
        else:
            vals = wavefn.scattered(lattice[0][blk], lattice[1][blk], p1, p2)
        vals = np.asarray(vals, dtype=complex)
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
        np.multiply(vals, weight, out=out)
        parts = out.view(float)  # real and imaginary parts, interleaved
        parts *= np.abs(parts) >= _FLUSH_BELOW
    if n_bad:
        raise FloatingPointError(
            f"{n_bad} non-finite samples on {grid.n1}x{grid.n2} grid, "
            f"first at (p1, p2) = ({first_bad[0]:.6g}, {first_bad[1]:.6g})"
        )
    return WeightedAmplitudeMatrix(a)


def purity_from_matrix(
    wam: WeightedAmplitudeMatrix, spectrum: bool = True
) -> Tuple[float, Optional[np.ndarray]]:
    """(purity, Schmidt spectrum) from the Gram matrix G of the samples.

    purity = ||G||_F^2 / Tr(G)^2, computed before and independently of the
    spectrum. The spectrum, G's eigenvalues over Tr(G) in descending order
    (see :func:`_schmidt_spectrum` for its accuracy), is computed only when
    ``spectrum`` is true (None otherwise), so that a caller that reads only
    the purity skips the factorization: every level of a refinement ladder
    and its subgrid check pass false, and a ladder's report factors its
    last level's G with :func:`_schmidt_spectrum` itself. Checked in the
    test suite against the singular values of A, a dense eigensolve of G
    and an O(N^4) direct contraction of the purity integral.

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
    Tr S <= 4 eps Tr G. The nonzero eigenvalues of L L^H are those of the
    r x r matrix L^H L, so the eigensolve costs O(r^3) and the factor
    O(n r^2), for rank r of the n x n matrix G. By Weyl's inequality each
    weight is low by at most Tr S / Tr G <= 4 eps, below the roundoff of a
    dense eigensolve, and the weights dropped by the stop sum to exactly
    that. The weights past r are exact zeros, so the spectrum keeps its
    length n. Near a double-delta resonance G has low rank: the final G of
    the criterion-10 branches that are 512 wide have rank 134 to 222, and
    the factorization takes 8-12 ms there against about 30 ms for a dense
    ``eigvalsh``. At full rank it is the slower route.
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
    is the estimated relative error of ``purity`` that stopped the
    refinement (see :func:`_refine`), NaN only when a first level's
    subgrid vanished and no second level ran, and
    ``converged`` says it met rel_tol before the node caps. Out-state
    reports populate the branch fields, with ``purity = purity_tra +
    purity_ref``, and list the transmitted levels and then the reflected
    ones in ``refinements``; :func:`purity_out` says what their
    ``converged`` also checks and how ``tra_report`` and ``ref_report``
    judge each branch. Only out-state reports and their sub-reports carry
    ``oob_weight``, each branch's weight at incident q <= 0 over its
    squared norm and, at the top level, the largest of them; a ladder over
    any other callable leaves it None. ``schmidt_spectrum`` holds one
    weight per row of the final grid's Gram matrix, descending (see
    :func:`_schmidt_spectrum`). It is None when :func:`purity_out` ran with
    ``spectrum=False``, which skips the factorization of the final grids
    and leaves every other field unchanged.
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
            # JSON (RFC 8259) has no NaN, which a one-level ladder leaves here
            # when its subgrid vanishes
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

    ``changes`` are its (purity change, norm change) pairs that
    :func:`_refine` reads, newest last: a first level's one pair is its
    subgrid's (:func:`_subgrid_changes`), which the second level replaces
    with the first change between levels, and later levels append theirs,
    keeping the last three. :meth:`sample` reduces each level as it is
    drawn to what the ladder and its report read of it: purity, norm and,
    for a spectrum, the Gram matrix G. So no ladder holds samples A past
    the level that drew them.
    """

    def __init__(self, wavefn, grid: GridSpec, n_cap: NPair, spectrum: bool) -> None:
        self.wavefn, self.grid, self.caps, self.spectrum = wavefn, grid, _as_pair(n_cap), spectrum
        self.trace = []
        self.gram = None

    def sample(self) -> None:
        self.gram = None  # the last level's G would otherwise outlive the next A
        wam = discretize(self.wavefn, self.grid)
        purity, _ = purity_from_matrix(wam, spectrum=False)
        if not self.trace:
            self.changes = [_subgrid_changes(wam, purity)]
        else:
            kept = self.changes[-2:] if len(self.trace) > 1 else []  # forget the subgrid
            self.changes = kept + [(purity - self.purity, wam.norm_sq - self.norm_sq)]
        self.purity, self.norm_sq = purity, wam.norm_sq
        self.trace.append((self.grid.n1, self.grid.n2, purity))
        if self.spectrum:
            self.gram = wam.gram

    def can_double(self) -> bool:
        return self.grid.doubled(*self.caps) != self.grid

    def report(self, rel_tol: float, tail: Optional[float] = None) -> PurityReport:
        """This ladder alone, judged by its own changes as :func:`_refine` judges a total.

        ``tail``, a branch's weight at incident q <= 0 (see :func:`_oob_tails`),
        is reported over the last level's squared norm as ``oob_weight``.
        """
        err = _estimate([self], rel_tol)[0]
        return PurityReport(
            purity=self.purity,
            schmidt_spectrum=_schmidt_spectrum(self.gram) if self.spectrum else None,
            grid_n=(self.grid.n1, self.grid.n2),
            refinement_error=err,
            converged=bool(err <= rel_tol),
            norm_sq=self.norm_sq,
            refinements=tuple(self.trace),
            oob_weight=None if tail is None else tail / self.norm_sq,
        )


def _subgrid_changes(wam: WeightedAmplitudeMatrix, purity: float) -> Tuple[float, float]:
    """A level's changes of purity and norm from its subgrid (see :func:`_refine`).

    NaN where the subgrid vanishes.
    """
    sub = WeightedAmplitudeMatrix(2.0 * wam.a[::2, ::2])
    try:
        sub_purity, _ = purity_from_matrix(sub, spectrum=False)
    except ZeroWavefunctionError:
        return float("nan"), float("nan")
    return purity - sub_purity, wam.norm_sq - sub.norm_sq


def _weights(ladders: Sequence[_Ladder]) -> list:
    """Each ladder's share of the total norm, the last one taken as the rest."""
    total = sum(lad.norm_sq for lad in ladders)
    w = [lad.norm_sq / total for lad in ladders[:-1]]
    return w + [1.0 - sum(w)]


# the ratio of changes below which a ladder counts as geometric (see _refine)
_RATIO = 0.5


def _geometric_tail(d: Sequence[float]) -> float:
    """The geometric tail of :func:`_refine` for a ladder's last changes, newest last.

    |d_n| where the tail does not apply: fewer than three changes, or a
    zero earlier one.
    """
    if len(d) == 3 and d[0] != 0.0 and d[1] != 0.0:
        rho = abs(d[2] / d[1])
        if rho < _RATIO and abs(d[1] / d[0]) < _RATIO:
            return abs(d[2]) * rho / (1.0 - rho)
    return abs(d[-1])


def _estimate(ladders: Sequence[_Ladder], rel_tol: float) -> Tuple[float, list]:
    """(error estimate of the total, each ladder's raw share), as defined at :func:`_refine`."""
    w = _weights(ladders)
    n = sum(lad.norm_sq for lad in ladders)
    total = sum(wb**2 * lad.purity for wb, lad in zip(w, ladders))

    def share(wb: float, lad: _Ladder, dp: float, dn: float) -> float:
        return (wb**2 * dp + 2.0 * abs(wb * lad.purity - total) * dn / n) / total

    raw = [share(wb, lad, *map(abs, lad.changes[-1])) for wb, lad in zip(w, ladders)]
    est = sum(raw)
    if est > rel_tol:
        tails = (map(_geometric_tail, zip(*lad.changes)) for lad in ladders)
        geo = sum(share(wb, lad, *d) for wb, lad, d in zip(w, ladders, tails))
        if geo <= rel_tol:
            return geo, raw
    return est, raw


def _refine(ladders: Sequence[_Ladder], rel_tol: float) -> float:
    """Refine sampled ladders until the total sum(w^2 p) meets rel_tol.

    The ladders refine as one, against the error of the total
    P = sum_b w_b^2 p_b, with w_b = n_b / N and N = sum_b n_b, rather than
    of each ladder: near a resonance the transmitted branch carries about
    1e-4 of the total, so it stops several levels before its own purity
    would meet rel_tol. The raw estimate sums each ladder's share
    (w_b^2 |dp_b| + 2 |w_b p_b - P| |dn_b| / N) / P: the change of its
    purity and, through the weights, of its norm, dP/dn_b being
    2 (w_b p_b - P) / N. Absolute values are summed, so changes that cancel
    cannot stop the refinement. While the estimate exceeds rel_tol, the
    ladder with the largest raw share that is still below its node caps
    doubles both axes of its grid. This is the global error budget of
    QUADPACK's ``qag`` (Piessens et al., 1983), which also sharpens its raw
    estimates by a heuristic, as the second estimate below does. With one
    ladder, w = 1 and the estimate is |dp| / p. Returns the estimate: at
    most rel_tol if the total converged, larger or NaN if every ladder
    reached its caps first.

    The raw estimate reads |dp_b| and |dn_b| as each ladder's last change
    d_n, the newest entry of ``_Ladder.changes``, which measures the error
    of the level before the reported one. The midpoint rule converges
    geometrically on these analytic integrands (see :func:`axis_nodes`),
    and a ladder's last level often only confirms the one before it; so
    where the raw estimate misses rel_tol a second one is tried: a change
    whose last two ratios rho = |d_n / d_{n-1}| and |d_{n-1} / d_{n-2}|
    both lie below ``_RATIO`` = 1/2 is read as the tail |d_n| rho / (1 - rho)
    of a geometric series, purity and norm changes each on their own
    (:func:`_geometric_tail`, which needs three changes between levels,
    neither earlier one zero). If that estimate meets rel_tol, refinement
    stops one level early and returns it; it does so on 2 of the reference
    sweep's 24 rows. Two ratios are asked for, not one, after Laurie's
    conditions for trusting an extrapolated error estimate (BIT 23, 258,
    1983): one small ratio alone does not show that the changes have
    settled into a geometric series. The ladder to double is still chosen
    by raw share, so every ladder's levels are a prefix of those the raw
    estimate alone would sample.

    A ladder with one level has no change between levels yet, so its dp
    and dn are read from its first level's subgrid A[::2, ::2], every
    other node of each axis with weights 4 h1 h2 (the one entry of
    ``_Ladder.changes``, from :func:`_subgrid_changes`): the level's own
    samples on an equispaced rule of twice the step, which converges like
    the midpoint rule on these integrands (see :func:`axis_nodes`) and
    costs a Gram matrix of a quarter of the nodes. So a resolved point
    stops at its base grid, and a ladder that reaches a second level
    forgets the subgrid: the first change between levels replaces its
    entry. Where the subgrid vanishes (:class:`ZeroWavefunctionError`) the
    share is unknown (NaN) and that ladder doubles first.

    Neither estimate is a bound. On the tolerance audit's 192 reference-row
    and criterion-10 points the reported total lies within its estimate of
    the fine total except on 13, whose errors are roundoff (below 2.1e-15).
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
) -> PurityReport:
    """Refine ``grid`` by doubling until the purity of ``wavefn`` meets rel_tol.

    ``wavefn`` is sampled as :func:`discretize` samples it, and the ladder
    stops by the rule of :func:`_refine`: the report's ``refinement_error``
    is the estimate that stopped it. The settings are checked by
    :func:`check_ladder`, with ``grid``'s node counts as the start. If the
    per-axis node caps are hit first, the last result is returned with
    ``converged = False``. The report carries the final grid's Schmidt
    spectrum. Raises as :func:`discretize` and :func:`purity_from_matrix`
    do. This is the one-ladder case of the refinement that
    :func:`purity_out` runs on two.
    """
    check_ladder(rel_tol, (grid.n1, grid.n2), n_cap)
    ladder = _Ladder(wavefn, grid, n_cap, spectrum=True)
    ladder.sample()
    _refine([ladder], rel_tol)
    return ladder.report(rel_tol)


# Window half-width in standard deviations of |phi|^2 along each axis. The
# tail of a Gaussian marginal past 8 sigma is erfc(8 / sqrt(2)) = 1.2e-15,
# far below the smallest rel_tol a ladder accepts (1e-10), so no tolerance
# can be met on a truncated window.
_NSIG = 8.0


def _lobe_windows(state: GaussianInState, reflected: bool) -> Tuple[AxisWindow, AxisWindow]:
    """Axis-aligned bounding box of one lobe's +-``_NSIG`` sigma covariance ellipse.

    Every grid's windows start here. The incident lobe sits at (k, -k) with
    covariance Sigma = diag(sigma1^2, sigma2^2): amplitude factors only
    reshuffle weight inside the in-state's envelope. The reflected lobe
    sits at (-k, k) with the congruence R Sigma R^T of the reflection map R.
    """
    k = state.k
    cov = np.diag([state.sigma1**2, state.sigma2**2])
    if reflected:
        refl = np.array(reflect_momenta(PairMomentum(*np.eye(2)), state.masses))
        cov, k = refl @ cov @ refl.T, -k
    hw = _NSIG * np.sqrt(np.diag(cov))
    return AxisWindow(k, float(hw[0])), AxisWindow(-k, float(hw[1]))


# The most a window is widened by to make its grid commensurate (see
# :func:`_commensurate`)
_WIDEN = 1.01


def _commensurate(masses, w1: AxisWindow, w2: AxisWindow) -> Tuple[AxisWindow, AxisWindow]:
    """The windows with one widened by at most 1 %, so that mu2 hw1 / (mu1 hw2) = c / d.

    c / d is the simplest fraction within 1 % of the windows' ratio, whose
    lattice in q is the smallest on a square grid; the grids of every level
    then have steps mu2 h1 : mu1 h2 = c n2 : d n1, in small integers, and
    their relative momenta lie on a lattice (see :func:`_q_lattice`). The
    window on the side the fraction lies is widened; neither gets narrower.
    """
    den = masses.mu1 * w2.halfwidth  # may underflow to 0, a ratio beyond the doubles
    ratio = masses.mu2 * w1.halfwidth / den if den else math.inf
    cd = _simplest_fraction(ratio / _WIDEN, ratio * _WIDEN)
    if cd is None:  # a ratio beyond the doubles, which no lattice would serve
        return w1, w2
    s = cd[0] / cd[1]
    if s >= ratio:
        return AxisWindow(w1.center, max(w1.halfwidth, w1.halfwidth * (s / ratio))), w2
    return w1, AxisWindow(w2.center, max(w2.halfwidth, w2.halfwidth * (ratio / s)))


def mode_grid(state: GaussianInState, mode: Mode, n: NPair = _BASE_N) -> GridSpec:
    """Grid over one lobe's windows; ``Mode.OUT`` has two lobes and raises ValueError.

    The windows are :func:`_lobe_windows`, made commensurate by
    :func:`_commensurate`. A grid over both lobes is :func:`joint_grid`.
    """
    if mode is Mode.OUT:
        raise ValueError(
            "the out mode has a transmitted and a reflected lobe; cover both with joint_grid"
        )
    n1, n2 = _as_pair(n)
    w1, w2 = _commensurate(state.masses, *_lobe_windows(state, mode in _REVERSED_INCIDENT))
    return GridSpec(n1=n1, n2=n2, window1=w1, window2=w2)


def joint_grid(state: GaussianInState, n: NPair = 256) -> GridSpec:
    """Single grid whose windows cover both the in and reflected lobes.

    The windows span both lobes' :func:`_lobe_windows`, made commensurate
    by :func:`_commensurate`.
    """
    n1, n2 = _as_pair(n)
    windows = []
    for wi, wr in zip(_lobe_windows(state, False), _lobe_windows(state, True)):
        lo = min(wi.center - wi.halfwidth, wr.center - wr.halfwidth)
        hi = max(wi.center + wi.halfwidth, wr.center + wr.halfwidth)
        windows.append(AxisWindow(0.5 * (lo + hi), 0.5 * (hi - lo)))
    w1, w2 = _commensurate(state.masses, *windows)
    return GridSpec(n1=n1, n2=n2, window1=w1, window2=w2)


# numpy's Gauss-Legendre rules of the two q integrals, one per node count
# (see _branch_overlap and _oob_tails)
_gauss_legendre = lru_cache(maxsize=2)(np.polynomial.legendre.leggauss)


def _q_nodes(stop: float, n: int, panels: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, stop], n per panel on equal panels."""
    x, w = _gauss_legendre(n)
    hw = 0.5 * stop / panels
    centers = hw * (2 * np.arange(panels) + 1)
    return (centers[:, None] + hw * x).ravel(), np.tile(hw * w, panels)


# Panels and nodes per panel of the overlap's q integral. Against 64 panels
# of 1,024 nodes (itself within 6.2e-15 of 256 such panels), 8 panels of 128
# are within 3.3e-15 (relative) on 68 light delta draws and 64 criterion-10
# points. On the reference sweep's rows from k = 0.313b, whose narrow
# resonances lie inside the q window, they are off by 1.7e-9 to 9.3e-4,
# where one rule of 1,024 nodes was off by up to 2.4e-3 and a 256^2 joint
# grid by 2.4e-5 to 9.7e-3.
_OVERLAP_PANELS, _OVERLAP_N = 8, 128


def _check_finite(f: np.ndarray, q: np.ndarray, label: str) -> None:
    """FloatingPointError if an integrand over the relative momenta q is not finite."""
    bad = ~np.isfinite(f)
    if np.any(bad):
        raise FloatingPointError(
            f"{np.count_nonzero(bad)} non-finite {label} integrands on {q.size} "
            f"relative momenta, first at q = {q[np.nonzero(bad)[-1][0]]:.6g}"
        )


def _branch_overlap(state: GaussianInState, model: AmplitudeModel) -> float:
    """|<transmitted|reflected>|, as a Gaussian P integral times a 1-D q integral.

    Scattering leaves the total momentum P untouched, and the reflected
    branch is phi_in at (P, -q). With p1 = mu1 P + q and p2 = mu2 P - q
    (Jacobian 1) the integrand conj(t phi_in(P, q)) r phi_in(P, -q)
    separates: the P integral is Gaussian, and the positions enter only as
    the phase exp(2iq (a2 - a1)). Its closed form, sqrt(pi/A)
    exp(B^2/(4A) - C) / (2 pi sigma1 sigma2) with A = mu1^2/(2 sigma1^2) +
    mu2^2/(2 sigma2^2), B = k (mu1/sigma1^2 - mu2/sigma2^2) and
    C = k^2 (1/sigma1^2 + 1/sigma2^2)/2, reduces to
    exp(-k^2/(2 sigma_q^2)) / (sqrt(2 pi) sigma_q), so

        <t|r> = exp(-k^2/(2 sigma_q^2)) / (sqrt(2 pi) sigma_q)
                * 2 int_0^inf conj(t(q)) r(q) exp(-q^2/(2 s^2)) cos(2q (a2 - a1)) dq,

    1/s^2 = 1/sigma1^2 + 1/sigma2^2, since t and r are taken at |q|. The
    exponent is at most -1/2 and underflows to an exact 0 for narrow
    packets. The q integral runs over [0, ``_NSIG`` s] on ``_OVERLAP_PANELS``
    equal panels of ``_OVERLAP_N`` Gauss-Legendre nodes, with one amplitude
    call: the integrand does not decay at q = 0, so the ladders' midpoint
    rule would converge there only algebraically. Raises FloatingPointError
    if its integrand is not finite.
    """
    s = 1.0 / float(np.hypot(1.0 / state.sigma1, 1.0 / state.sigma2))
    q, w = _q_nodes(_NSIG * s, _OVERLAP_N, _OVERLAP_PANELS)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t, r = model.amplitudes(q)
        phase = np.cos(2.0 * (state.a2 - state.a1) * q)
        f = np.conj(t) * r * np.exp(-0.5 * (q / s) ** 2) * phase
    _check_finite(f, q, "overlap")
    sq = state.sigma_q
    # x * x, unlike x ** 2, overflows to inf rather than raising, and the factor is then 0
    x = state.k / sq
    p_integral = math.exp(-0.5 * (x * x)) / (math.sqrt(2.0 * math.pi) * sq)
    return p_integral * float(abs(2.0 * np.dot(w, f)))


# Gauss-Legendre nodes of the out-of-convention tails' u integral. Against
# adaptive quadrature in q they are within 8e-14 (relative) on the light bench
# workload's 72 hard-core and delta points, 5.2e-13 on the 24 criterion-10
# points, and 1.1e-11 on the reference sweep's rows up to k = 0.193b. From
# there narrow resonances of the double delta's |t|^2 lie inside
# [0, _NSIG sigma_q], which a fixed rule does not resolve: the transmitted tail,
# below 1e-15 of the in-state, is off by up to 130 % and the reflected one
# by up to 3.4e-6 (1.9e-2 and 4.6e-8 on 1,024 nodes).
_TAIL_N = 64


def _oob_tails(state: GaussianInState, model: AmplitudeModel) -> list:
    """Each branch's weight at incident relative momentum q <= 0, (transmitted, reflected).

    Amplitudes exist only for incident q > 0 and are evaluated at |q|.
    Integrated over the total momentum P, |phi_in|^2 is the Gaussian
    g(q) = exp(-(q - k)^2 / (2 sigma_q^2)) / (sqrt(2 pi) sigma_q). The
    transmitted branch is incident at q, and the reflected one, phi_in at
    (P, -q), at -q; so each branch's weight outside the convention is

        int_0^inf |a(u)|^2 g(-u) du,  a = t or r,

    taken on ``_TAIL_N`` Gauss-Legendre nodes over [0, ``_NSIG`` sigma_q]
    with one amplitude call; the integrand peaks at u = 0, the end of its
    interval, where the midpoint rule would converge only algebraically.
    The Gaussian underflows to an exact 0 for narrow packets. Raises
    FloatingPointError if an integrand is not finite.
    """
    sq = state.sigma_q
    u, w = _q_nodes(_NSIG * sq, _TAIL_N)
    # the square overflows to inf far down a narrow packet's tail, where g is 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = np.exp(-0.5 * ((u + state.k) / sq) ** 2) / (math.sqrt(2.0 * math.pi) * sq)
        f = np.abs(np.stack(model.amplitudes(u))) ** 2 * g
    _check_finite(f, u, "out-of-convention")
    return (f @ w).tolist()


def purity_out(
    state: GaussianInState,
    model: AmplitudeModel,
    rel_tol: float = _REL_TOL,
    base_n: NPair = _BASE_N,
    n_cap: NPair = _N_CAP,
    spectrum: bool = True,
) -> PurityReport:
    """Purity of the full out-state via the two-branch mode split.

    Each branch is sampled on its own :func:`mode_grid`, and the branch
    purities recombine as w_t^2 * p_t + w_r^2 * p_r with w = branch norm /
    total norm. The two ladders refine as one, by the rule of
    :func:`_refine`, whose estimate is ``refinement_error``. ``converged``
    says that the estimate met rel_tol before the node caps and that
    ``norm_sq`` lies within rel_tol of 1: the in-state is normalized and
    scattering unitary, so a norm further off shows a grid that does not
    resolve the packet, such as one whose nodes collapse below ulp(k),
    whose levels may still agree. Each branch's sub-report judges that
    branch's own changes by the same rule and keeps its own ``converged``,
    which a branch with a small weight may leave false.

    The split drops the one-particle cross terms between the branches,
    which matter once the packets' momentum ranges overlap: at mu1 = 0.2,
    sigma = (0.3, 0.1) k and a delta at k = b the split is 2.8e-4
    (relative) below the purity of the out-mode sampled on one joint grid.
    ``converged`` does not bound these terms, and neither does ``overlap``,
    |<transmitted|reflected>| (see :func:`_branch_overlap`), 5.3e-6 in that
    case. A branch that vanishes in the sense of :func:`purity_from_matrix`
    (the hard core's transmission, or a weight below 1.5e-154, whose share
    w^2 p of the total lies far below roundoff) contributes nothing and is
    marked absent via a None sub-report; the overlap is then 0.0 exactly,
    and no integral is computed. ZeroWavefunctionError if both vanish.
    Each live branch's ``oob_weight`` is its weight at incident q <= 0 (see
    :func:`_oob_tails`) over its ladder's squared norm; the report's is the
    largest. The overlap is computed before the tails, and either raises
    FloatingPointError on a non-finite integrand. All settings are checked
    by :func:`check_ladder` first. With ``spectrum`` false neither branch
    runs its final factorization and the report's spectra are None.
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
    # an absent branch overlaps nothing; no integral is computed
    overlap = _branch_overlap(state, model) if len(sampled) == 2 else 0.0
    tails = dict(zip((Mode.TRANSMITTED, Mode.REFLECTED), _oob_tails(state, model)))
    weights = dict(zip(ladders, _weights(sampled)))
    reports = {mode: lad.report(rel_tol, tails[mode]) for mode, lad in ladders.items()}
    parts = {mode: weights[mode] ** 2 * rep.purity for mode, rep in reports.items()}
    purity_tra, purity_ref = (parts.get(m, 0.0) for m in (Mode.TRANSMITTED, Mode.REFLECTED))

    lams = [weights[m] * r.schmidt_spectrum for m, r in reports.items()] if spectrum else None

    live = reports.values()
    norm_sq = sum(r.norm_sq for r in live)
    return PurityReport(
        purity=purity_tra + purity_ref,
        schmidt_spectrum=np.sort(np.concatenate(lams))[::-1] if spectrum else None,
        grid_n=tuple(max(n) for n in zip(*(r.grid_n for r in live))),
        refinement_error=est,
        converged=bool(est <= rel_tol and abs(norm_sq - 1.0) <= rel_tol),
        norm_sq=norm_sq,
        refinements=tuple(tr for r in live for tr in r.refinements),
        oob_weight=max(r.oob_weight for r in live),
        purity_tra=purity_tra,
        purity_ref=purity_ref,
        overlap=overlap,
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
    pair momenta of (p, q) lands exactly on (p, -q). The windows span
    ``_NSIG`` standard deviations: in p, +-_NSIG sqrt(sigma1^2 + sigma2^2)
    about 0; in q, with a model, the out-state on [-(k + _NSIG sigma_q),
    k + _NSIG sigma_q], which holds both lobes, and without one the
    in-state on its incident lobe, k +- _NSIG sigma_q.
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
