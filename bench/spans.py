"""In-memory spans around the package's public functions, installed from outside.

``Recorder.install`` replaces each traced function with a wrapper that records
one span (name, start, end, parent id, point id, attributes) per call, and
``uninstall`` puts the originals back. Nothing under ``src/`` is edited: the
wrappers are assigned to the module attributes and class attributes that the
package looks up at call time. Module-level functions are patched in every
module that imported them by name (``cli`` imports ``purity_out`` and
``purity_adaptive``).

A span's self time is its duration minus the durations of its direct
children; on one thread the spans nest, so self times partition the time
covered by the root spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _nodes(args, kwargs, out):
    p1 = args[1] if len(args) > 1 else kwargs["p1"]
    p2 = args[2] if len(args) > 2 else kwargs["p2"]
    return np.broadcast(p1, p2).size


def _q_points(args, kwargs, out):
    q = args[1] if len(args) > 1 else kwargs["q"]
    return (args[0].kind.value, int(np.size(q)))


def _shape(args, kwargs, out):
    return tuple(int(n) for n in (args[0] if args else kwargs["wam"]).a.shape)


def _ladder(args, kwargs, out):
    return (bool(out.converged), tuple((int(n1), int(n2)) for n1, n2, _ in out.refinements))


def _axis_n(args, kwargs, out):
    return int(args[0] if args else kwargs["n"])


class Recorder:
    """Collects spans while installed; one recorder per traced pass."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []  # [name, start, end, parent, point, attrs]
        self._stack = []
        self.point = None
        self._saved = []

    def _wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.point is None:  # outside a timed call, e.g. an output check
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.point, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, out)
            return out

        return wrapper

    def _targets(self):
        cli, purity = self.pkg.cli, self.pkg.purity
        wf, amp = self.pkg.wavefunction, self.pkg.amplitudes
        return [
            ("cli.run", [cli], "run", None),
            ("purity.purity_out", [purity, cli], "purity_out", None),
            ("purity.purity_adaptive", [purity, cli], "purity_adaptive", _ladder),
            ("purity.discretize", [purity], "discretize", None),
            ("purity.axis_nodes", [purity], "axis_nodes", _axis_n),
            ("purity.purity_from_matrix", [purity], "purity_from_matrix", _shape),
            ("ModeWavefunction.__call__", [wf.ModeWavefunction], "__call__", _nodes),
            ("AmplitudeModel.amplitudes", [amp.AmplitudeModel], "amplitudes", _q_points),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder already installed")
        for name, owners, attr, attrs in self._targets():
            original = getattr(owners[0], attr)
            wrapped = self._wrap(name, original, attrs)
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def point_counts(spans):
    """Exact work counts per point id; they must repeat between traced passes."""
    counts = defaultdict(Counter)
    for name, _, _, _, point, attrs in spans:
        c = counts[point]
        if attrs is None:  # the call raised, e.g. a branch with zero weight
            continue
        if name == "ModeWavefunction.__call__":
            c["wavefunction.nodes"] += attrs
        elif name == "AmplitudeModel.amplitudes":
            c["amplitudes.q_points"] += attrs[1]
        elif name == "purity.purity_adaptive":
            c["purity.ladder.levels"] += len(attrs[1])
        elif name == "purity.purity_from_matrix":
            c["purity.kernel.calls.%dx%d" % attrs] += 1
    return counts


def _svd_gflop(n1: int, n2: int) -> float:
    # singular values only of a complex m x n matrix (m >= n): bidiagonal
    # reduction 4mn^2 - 4n^3/3 real-equivalent flops, times 4 for complex
    m, n = max(n1, n2), min(n1, n2)
    return 4.0 * (4.0 * m * n * n - 4.0 * n**3 / 3.0) / 1e9


def layer_metrics(spans):
    """Per-layer figures from one traced pass.

    Returns (metrics, detail): ``metrics`` holds the per-layer figures with
    fixed names that exist on every workload; ``detail`` adds the ones keyed
    by grid shape or potential kind, and the CLI's self time.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    kernel_s = defaultdict(float)
    kernel_calls = Counter()
    amp_s = defaultdict(float)
    amp_q = Counter()
    nodes = 0
    ladder_levels = capped = final_nodes = all_nodes = 0
    adaptive_in = defaultdict(float)  # purity_adaptive time per parent span
    for i, (name, t0, t1, parent, _, attrs) in enumerate(spans):
        dur = t1 - t0
        total[name] += dur
        own[name] += selfs[i]
        calls[name] += 1
        if name == "purity.purity_adaptive" and parent >= 0:
            adaptive_in[parent] += dur
        if attrs is None:  # the call raised, e.g. a branch with zero weight
            continue
        if name == "purity.purity_from_matrix":
            kernel_s[attrs] += dur
            kernel_calls[attrs] += 1
        elif name == "AmplitudeModel.amplitudes":
            amp_s[attrs[0]] += dur
            amp_q[attrs[0]] += attrs[1]
        elif name == "ModeWavefunction.__call__":
            nodes += attrs
        elif name == "purity.purity_adaptive":
            converged, levels = attrs
            ladder_levels += len(levels)
            capped += not converged
            sizes = [n1 * n2 for n1, n2 in levels]
            final_nodes += sizes[-1]
            all_nodes += sum(sizes)

    overlap_s = sum(
        (s[2] - s[1]) - adaptive_in[i]
        for i, s in enumerate(spans)
        if s[0] == "purity.purity_out"
    )
    q_points = sum(amp_q.values())
    shape_name = {shape: "%dx%d" % shape for shape in kernel_calls}
    metrics = {
        "purity.kernel.s": (total["purity.purity_from_matrix"], "s"),
        "purity.kernel.calls.1024x1024": (kernel_calls[(1024, 1024)], "count"),
        "purity.kernel.calls.2048x1024": (kernel_calls[(2048, 1024)], "count"),
        "purity.kernel.calls.4096x1024": (kernel_calls[(4096, 1024)], "count"),
        "purity.kernel.gflop": (
            sum(c * _svd_gflop(*shape) for shape, c in kernel_calls.items()),
            "Gflop",
        ),
        "purity.kernel.a_bytes_max": (
            max((16 * n1 * n2 for n1, n2 in kernel_calls), default=0),
            "bytes",
        ),
        "amplitudes.s": (total["AmplitudeModel.amplitudes"], "s"),
        "amplitudes.q_points": (q_points, "count"),
        "amplitudes.ns_per_q": (
            1e9 * total["AmplitudeModel.amplitudes"] / max(q_points, 1),
            "ns",
        ),
        "wavefunction.self_s": (own["ModeWavefunction.__call__"], "s"),
        "wavefunction.nodes": (nodes, "count"),
        "wavefunction.ns_per_node": (
            1e9 * own["ModeWavefunction.__call__"] / max(nodes, 1),
            "ns",
        ),
        "purity.nodes.s": (total["purity.axis_nodes"], "s"),
        "purity.nodes.calls": (calls["purity.axis_nodes"], "count"),
        "purity.sample.self_s": (own["purity.discretize"], "s"),
        "purity.ladder.levels": (ladder_levels, "count"),
        "purity.ladder.capped": (capped, "count"),
        "purity.ladder.final_share": (final_nodes / max(all_nodes, 1), "ratio"),
        "purity.overlap.s": (overlap_s, "s"),
        "cli.calls": (calls["cli.run"], "count"),
    }
    detail = {
        "cli.self_s": (own["cli.run"], "s"),
        **{
            f"purity.kernel.s.{shape_name[sh]}": (kernel_s[sh], "s")
            for sh in sorted(kernel_s)
        },
        **{
            f"purity.kernel.calls.{shape_name[sh]}": (kernel_calls[sh], "count")
            for sh in sorted(kernel_calls)
        },
        **{
            f"amplitudes.ns_per_q.{kind}": (1e9 * amp_s[kind] / max(amp_q[kind], 1), "ns")
            for kind in sorted(amp_s)
        },
        **{f"self_s.{name}": (own[name], "s") for name in sorted(own)},
        **{f"calls.{name}": (calls[name], "count") for name in sorted(calls)},
    }
    return metrics, detail
