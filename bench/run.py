"""Benchmark of the scatter_entangle purity engine.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md): resonance_ladder, reference_sweep,
light_points. The package is imported from ``src/`` of the same checkout.

A run first times ``setup_s`` (fresh interpreters importing the package),
then runs whole rounds of the workload's points until the timed calls add
up to ``--seconds``, checking every output outside the timed region. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` the same
loop runs with spans recorded around the package's layers (bench/spans.py)
and it reports per-layer metrics, then re-runs the first points untraced and
traced to check that tracing leaves purities bitwise unchanged and that the
work counts repeat exactly.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``python3 bench/run.py --write-references`` recomputes the seed-0 reference
purities in bench/reference_seed0.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "reference_seed0.json"
SETUP_REPS = 5
CHECK_SHARE = 0.2  # share of --seconds re-run by the trace self-checks
TAIL_BEYOND = 10


def _fail(message: str, code: int = 1):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_package():
    for rel in ("scatter_entangle/__init__.py", "scatter_entangle/cli.py"):
        if not (SRC / rel).is_file():
            _fail(f"package source missing: {SRC / rel}", 2)
    sys.path.insert(0, str(SRC))
    import scatter_entangle as pkg
    import scatter_entangle.cli  # noqa: F401  (binds pkg.cli)

    if Path(pkg.__file__).resolve().parent != (SRC / "scatter_entangle").resolve():
        _fail(f"imported {pkg.__file__}, not the checkout's src/", 2)
    return pkg


def measure_setup(reps: int = SETUP_REPS) -> list:
    """Wall time of fresh interpreters that import the package and its CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import scatter_entangle, scatter_entangle.cli"]
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            _fail(f"import failed: {proc.stderr.decode(errors='replace').strip()}", 2)
    return times


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> str:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, sym):
                return str(getattr(lib, sym)())
    return "unknown"


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_env = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": thread_env or "unset (library default)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run_points(wl, points, recorder=None, first_id=0):
    """Time each point's call and check its output; returns one record per point."""
    records = []
    for i, point in enumerate(points, start=first_id):
        call = wl.prepare(point)
        if recorder is not None:
            recorder.point = i
        t0 = perf_counter()
        try:
            out, exc = call(), None
        except Exception as e:  # counted as a failed point
            out, exc = None, e
        dt = perf_counter() - t0
        if recorder is not None:
            recorder.point = None
        if exc is not None:
            outcome = workloads.Outcome(None, False, [f"{type(exc).__name__}: {exc}"])
        else:
            try:
                outcome = wl.check(point, out)
            except Exception as e:
                outcome = workloads.Outcome(
                    None, False, [f"check raised {type(e).__name__}: {e}"]
                )
        wl.check_reference(point, outcome)
        records.append((point, dt, outcome))
    return records


def measure(wl, seconds: float, recorder=None):
    """Whole rounds of points until the timed calls add up to ``seconds``."""
    records, rounds = [], []
    for points in wl.rounds():
        if sum(rounds) >= seconds:
            break
        new = run_points(wl, points, recorder, first_id=len(records))
        rounds.append(sum(dt for _, dt, _ in new))
        records += new
    return records, rounds


def _rank(sorted_vals, p: float) -> float:
    """Nearest-rank percentile (0 < p <= 1)."""
    return sorted_vals[max(math.ceil(p * len(sorted_vals)), 1) - 1]


def end_to_end(records, setup_times):
    times = sorted(dt for _, dt, _ in records)
    n = len(times)
    if n > 2 * TAIL_BEYOND:
        tail_p, tail = (n - TAIL_BEYOND) / n, times[n - TAIL_BEYOND - 1]
    else:  # no percentile above the median has ten samples beyond it
        tail_p, tail = 1.0, times[-1]
    converged = sum(o.converged for _, _, o in records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "points_per_s": (n / sum(times), "1/s"),
        "point_s_p50": (_rank(times, 0.5), "s"),
        "point_s_tail": (tail, "s"),
        "converged_frac": (converged / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "point_s_p50": f"of {n} points",
        "point_s_tail": (
            f"p{100 * tail_p:.1f} of {n} points, {TAIL_BEYOND} beyond"
            if tail_p < 1.0
            else f"slowest of {n} points (fewer than {2 * TAIL_BEYOND + 1})"
        ),
        "converged_frac": f"{converged} of {n} points",
    }
    return metrics, notes


def _print_metrics(metrics, notes):
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<34} {value:>16.6g} {unit:<6} {note}")


def _result_line(records, failed, metrics):
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def trace_checks(pkg, wl, records, recorder, seconds):
    """Re-run the first points untraced, then traced, and compare."""
    budget, picked = CHECK_SHARE * seconds, []
    for point, dt, _ in records:
        if picked and budget < dt:
            break
        picked.append(point)
        budget -= dt
    first = records[: len(picked)]

    plain = run_points(wl, picked)
    again = spans.Recorder(pkg)
    again.install()
    try:
        traced = run_points(wl, picked, again)
    finally:
        again.uninstall()

    for (point, _, o1), (_, _, o2) in zip(first, plain):
        if o1.purity != o2.purity:  # bitwise for floats; None only on failure
            _fail(f"tracing changed the purity of {point.label}: {o1.purity!r} vs {o2.purity!r}")
    before = spans.point_counts(recorder.spans)
    after = spans.point_counts(again.spans)
    for i, (point, _, _) in enumerate(first):
        if before[i] != after[i]:
            _fail(
                f"work counts of {point.label} did not repeat between traced passes: "
                f"{dict(before[i])} vs {dict(after[i])}"
            )
    t_plain = sum(dt for _, dt, _ in plain)
    t_traced = sum(dt for _, dt, _ in traced)
    return {
        "check_points": len(picked),
        "check_untraced_s": t_plain,
        "check_traced_s": t_traced,
        "check_untraced_points_per_s": len(picked) / t_plain,
        "check_traced_points_per_s": len(picked) / t_traced,
        "overhead_frac": (t_traced - t_plain) / t_plain,
    }


def closure(recorded, records):
    """Self times of all spans plus the untraced remainder = traced wall time."""
    selfs = spans.self_times(recorded)
    if min(selfs, default=0.0) < -1e-6:
        _fail(f"negative self time {min(selfs):.3g} s: spans do not nest")
    wall = sum(dt for _, dt, _ in records)
    roots = sum(s[2] - s[1] for s in recorded if s[3] < 0)
    self_sum = sum(selfs)
    remainder = wall - roots
    if remainder < 0 or abs(self_sum + remainder - wall) > 1e-6 * wall:
        _fail(f"self times {self_sum} + remainder {remainder} != traced wall {wall}")
    return {"self_sum_s": self_sum, "untraced_remainder_s": remainder, "traced_wall_s": wall}


def write_references(pkg, workdir):
    """Seed-0 purities: the full ROADMAP layouts and the first light points."""
    light = len(workloads.LightPoints.CORNERS) + 1024
    counts = {"resonance_ladder": 24, "reference_sweep": 24, "light_points": light}
    refs = {}
    for name, count in counts.items():
        wl = workloads.WORKLOADS[name](pkg, 0, workdir)
        points = []
        for rnd in wl.rounds():
            points += rnd
            if len(points) >= count:
                break
        values = [None] * count
        for point, _, outcome in run_points(wl, points[:count]):
            if outcome.errors:
                _fail(f"{name} {point.label}: {outcome.errors}")
            values[point.ref_key] = outcome.purity
        refs[name] = values
        print(f"{name}: {count} reference purities", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=0) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_references and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    pkg = _import_package()
    setup_times = None if args.write_references or args.trace else measure_setup()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.write_references:
            write_references(pkg, workdir)
            return 0

        wl = workloads.WORKLOADS[args.workload](pkg, args.seed, workdir)
        if args.seed == 0:
            wl.references = json.loads(REFERENCES.read_text())[wl.name]
        print(
            f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
        )
        print("env " + json.dumps(environment(args.seed)))

        if not args.trace:
            records, rounds = measure(wl, args.seconds)
            metrics, notes = end_to_end(records, setup_times)
        else:
            recorder = spans.Recorder(pkg)
            recorder.install()
            try:
                records, rounds = measure(wl, args.seconds, recorder)
            finally:
                recorder.uninstall()
            metrics, detail = spans.layer_metrics(recorder.spans)
            traced_rate = len(records) / sum(dt for _, dt, _ in records)
            metrics["trace.points_per_s"] = (traced_rate, "1/s")
            checks = {
                **closure(recorder.spans, records),
                **trace_checks(pkg, wl, records, recorder, args.seconds),
            }

    failed = sum(bool(o.errors) for _, _, o in records)
    n_conv = sum(o.converged for _, _, o in records)
    print(
        f"{wl.name}: {len(records)} points in {len(rounds)} rounds, "
        f"{sum(dt for _, dt, _ in records):.2f} s timed, "
        f"{len(records) - n_conv} unconverged, {failed} failed"
    )
    if len(rounds) <= 8:
        print("  round seconds: " + " ".join(f"{t:.2f}" for t in rounds))
    for point, dt, outcome in records:
        if len(records) <= 48:
            print(f"  point {point.label:<18} {dt:9.4f} s  purity {outcome.purity!r}"
                  f"{'' if outcome.converged else '  unconverged'}")
        for err in outcome.errors:
            print(f"  FAILED {point.label}: {err}")
    if not args.trace:
        _print_metrics(metrics, notes)
        print(f"  {'failed_frac':<34} {failed / len(records):>16.6g} {'ratio':<6} "
              f"{failed} of {len(records)} points (also the result's failed/attempted)")
    else:
        _print_metrics(metrics, {})
        print("detail " + json.dumps({k: {"value": v, "unit": u} for k, (v, u) in detail.items()}))
        print("trace_checks " + json.dumps(checks))
        print(
            f"  tracing overhead on {checks['check_points']} re-run points: "
            f"{100 * checks['overhead_frac']:+.2f} %; purities bitwise identical; "
            "work counts repeat exactly"
        )
    print(_result_line(records, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
