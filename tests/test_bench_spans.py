"""bench/spans.py traces the package by replacing its functions by name; every
name it patches must exist, its spans must carry the work counts the
benchmark reports, and uninstalling must put back each original."""

import json
import runpy
from pathlib import Path

import scatter_entangle
from scatter_entangle import cli, purity
from scatter_entangle.amplitudes import AmplitudeModel
from scatter_entangle.wavefunction import ModeWavefunction

ROOT = Path(__file__).resolve().parents[1]
SPANS = runpy.run_path(str(ROOT / "bench" / "spans.py"), run_name="bench_spans")

PATCHED = [
    (cli, "run"),
    (cli, "purity_out"),
    (cli, "purity_adaptive"),
    (purity, "purity_out"),
    (purity, "purity_adaptive"),
    (purity, "discretize"),
    (purity, "axis_nodes"),
    (purity, "purity_from_matrix"),
    (ModeWavefunction, "__call__"),
    (AmplitudeModel, "amplitudes"),
]


def test_the_recorder_traces_a_purity_call_and_restores_the_package(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "masses": {"mu1": 0.2},
        "potential": {"kind": "delta", "alpha": 6.25},
        "state": {"k": 1.0, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
        "engine": {"rel_tol": 1e-4, "base_n": 32, "n_cap": 128},
    }))
    originals = [getattr(owner, attr) for owner, attr in PATCHED]
    recorder = SPANS["Recorder"](scatter_entangle)
    recorder.install()
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(PATCHED, originals))
        recorder.point = 0
        assert cli.run(["purity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        recorder.point = None
    finally:
        recorder.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(PATCHED, originals))

    counts = SPANS["point_counts"](recorder.spans)[0]
    assert counts["amplitudes.q_points"] > 0
    assert any(name.startswith("purity.kernel.calls.") for name in counts)
    metrics, _ = SPANS["layer_metrics"](recorder.spans)
    assert metrics["cli.calls"] == (1, "count")
