"""Fine-grid references for the tolerance audit of the ladders' geometric stop.

    python tests/tolerance_audit.py           # rewrite tests/data/tolerance_audit.json
    python tests/tolerance_audit.py --check   # recompute two committed references

The points are the double-delta ladders that stop earliest under the
geometric estimate (see ``purity._refine``):

- the 24 rows of ROADMAP.md's reference sweep, at k-shift 0 and shifted by
  uniform(0, 0.02) of the k step, the shift the benchmark's
  ``reference_sweep`` draws for seeds 101-103;
- the 24 points of acceptance criterion 10 (the benchmark's
  ``resonance_ladder`` layout), at the offsets of seed 0 and with the
  +-5e-5 b jitter that workload draws for seeds 101-103.

The rows run the sweep's engine settings (rel_tol 1e-5, 64 to 1024 nodes per
axis) and criterion 10 its own (rel_tol 1e-5, (128, 64) to (4096, 1024)).
Each point's reference is the split total w_t^2 p_t + w_r^2 p_r with each
branch sampled once by ``discretize`` on its ``mode_grid``: 2048^2 nodes for
the rows, 8192x2048 for criterion 10. Each point is also run twice through
``purity_out``, with the geometric estimate and with every change read raw,
and a point whose final grids differ is recorded as shortened, with both
runs' grids and errors.

Writing the file takes about 12 minutes on a 2-core x86-64 machine, over
two thirds of it on the criterion-10 points and their 8192x2048
references. ``--check`` recomputes the references of the first two
shortened points, two rows at 2048^2 (about 5 s), and exits 1 unless both
match the file to 1e-12 relative. tests/test_tolerance_audit.py
re-runs every shortened point against the file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scatter_entangle import purity  # noqa: E402
from scatter_entangle.amplitudes import AmplitudeModel, find_resonances  # noqa: E402
from scatter_entangle.kinematics import MassPartition  # noqa: E402
from scatter_entangle.wavefunction import GaussianInState, Mode, ModeWavefunction  # noqa: E402

DATA = ROOT / "tests" / "data" / "tolerance_audit.json"
SEEDS = (0, 101, 102, 103)
MU1 = 0.2

# the reference sweep of ROADMAP.md
ROW_ALPHA, ROW_AB, ROW_WIDTHS = 6.25, 10.0, (0.2, 0.1)
ROW_AXIS = np.linspace(0.05, 0.6, 24)
ROW_ENGINE = {"rel_tol": 1e-5, "base_n": [64, 64], "n_cap": [1024, 1024]}
ROW_FINE = [2048, 2048]

# acceptance criterion 10: bands (w, side) in run order, offsets from q* in b
C10_BANDS = ((5.0, -1), (5.0, +1), (10.0, -1), (10.0, +1), (50.0, -1), (50.0, +1))
C10_OFFSETS = (0.018, 0.022, 0.027, 0.033)
C10_JITTER = 5e-5
C10_ENGINE = {"rel_tol": 1e-5, "base_n": [128, 64], "n_cap": [4096, 1024]}
C10_FINE = [8192, 2048]


def row_points(seed: int) -> list:
    mp = MassPartition(MU1)
    alpha, a = ROW_ALPHA, ROW_AB / (mp.mu_red * ROW_ALPHA)
    model = AmplitudeModel.double_dirac_delta(alpha, a, mp)
    step = float(ROW_AXIS[1] - ROW_AXIS[0])
    shift = 0.0 if seed == 0 else float(np.random.default_rng(seed).uniform(0.0, 0.02)) * step
    points = []
    for i, kb in enumerate((ROW_AXIS + shift).tolist()):
        k = kb * model.strength_scale
        points.append(
            dict(
                label=f"row{i}", seed=seed, mu1=MU1, alpha=alpha, a=a, k=k, sigma1=ROW_WIDTHS[0] * k,
                sigma2=ROW_WIDTHS[1] * k, **ROW_ENGINE, fine_n=ROW_FINE,
            )
        )
    return points


def c10_points(seed: int) -> list:
    """Two rounds of the resonance workload: offsets 0.018 and 0.022, then 0.027 and 0.033."""
    mp = MassPartition(MU1)
    alpha, a = 1.0 / mp.mu_red, 10.0
    model = AmplitudeModel.double_dirac_delta(alpha, a, mp)
    q_star = float(find_resonances(model, (0.01, 1.0), count=1)[0])
    rng = np.random.default_rng(seed)
    points = []
    for base in C10_OFFSETS:
        for w, side in C10_BANDS:
            off = base if seed == 0 else base + float(rng.uniform(-C10_JITTER, C10_JITTER))
            k = q_star + side * off
            points.append(
                dict(
                    label=f"w{w:g}{'+' if side > 0 else '-'}{off:.5f}", seed=seed, mu1=MU1,
                    alpha=alpha, a=a, k=k, sigma1=k / w,
                    sigma2=k / (2 * w), **C10_ENGINE, fine_n=C10_FINE,
                )
            )
    return points


def setup(point: dict):
    """(state, model) of a recorded point."""
    mp = MassPartition(point["mu1"])
    model = AmplitudeModel.double_dirac_delta(point["alpha"], point["a"], mp)
    state = GaussianInState(k=point["k"], sigma1=point["sigma1"], sigma2=point["sigma2"], masses=mp)
    return state, model


def run(point: dict) -> purity.PurityReport:
    state, model = setup(point)
    return purity.purity_out(
        state, model, rel_tol=point["rel_tol"], base_n=tuple(point["base_n"]),
        n_cap=tuple(point["n_cap"]), spectrum=False,
    )


def grids(rep: purity.PurityReport) -> dict:
    return {
        name: list(sub.grid_n)
        for name, sub in (("tra", rep.tra_report), ("ref", rep.ref_report))
        if sub is not None
    }


@contextlib.contextmanager
def raw_changes_only():
    """Read every change raw, as the ladders did before the geometric estimate."""
    tail = purity._geometric_tail
    purity._geometric_tail = purity._last_change
    try:
        yield
    finally:
        purity._geometric_tail = tail


def fine_total(point: dict) -> float:
    """The split total w_t^2 p_t + w_r^2 p_r, each branch on one fine grid."""
    state, model = setup(point)
    parts = []
    for mode in (Mode.TRANSMITTED, Mode.REFLECTED):
        fn = ModeWavefunction(mode, state, model)
        wam = purity.discretize(fn, purity.mode_grid(state, mode, tuple(point["fine_n"])))
        parts.append((wam.norm_sq, purity.purity_from_matrix(wam, spectrum=False)[0]))
    total = sum(n for n, _ in parts)
    return sum((n / total) ** 2 * p for n, p in parts)


def audit(point: dict) -> dict:
    rep = run(point)
    with raw_changes_only():
        raw = run(point)
    fine = fine_total(point)
    return dict(
        point,
        fine=fine,
        purity=rep.purity,
        est_error=rep.refinement_error,
        converged=rep.converged,
        error=abs(rep.purity - fine) / fine,
        grids=grids(rep),
        raw_grids=grids(raw),
        raw_error=abs(raw.purity - fine) / fine,
        shortened=grids(rep) != grids(raw),
    )


def write() -> None:
    points = [p for seed in SEEDS for p in row_points(seed) + c10_points(seed)]
    records = []
    for i, point in enumerate(points):
        t0 = time.perf_counter()
        rec = audit(point)
        records.append(rec)
        print(
            f"{i + 1}/{len(points)} seed {rec['seed']} {rec['label']}: error {rec['error']:.2e}"
            f" est {rec['est_error']:.2e} grids {rec['grids']}"
            f"{' shortened' if rec['shortened'] else ''} ({time.perf_counter() - t0:.1f} s)",
            flush=True,
        )
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(records, indent=1) + "\n")
    short = [r for r in records if r["shortened"]]
    print(f"{len(short)} of {len(records)} shortened; worst error {max(r['error'] for r in records):.2e}")


def check() -> int:
    records = [r for r in json.loads(DATA.read_text()) if r["shortened"]][:2]
    bad = 0
    for rec in records:
        fine = fine_total(rec)
        ok = abs(fine - rec["fine"]) <= 1e-12 * rec["fine"]
        bad += not ok
        print(f"seed {rec['seed']} {rec['label']}: {fine!r} vs {rec['fine']!r} {'ok' if ok else 'DRIFT'}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="recompute two references and compare")
    if ap.parse_args().check:
        return check()
    write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
