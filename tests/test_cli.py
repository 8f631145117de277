import json

import numpy as np
import pytest

from scatter_entangle import purity
from scatter_entangle.amplitudes import AmplitudeModel, AmplitudePair
from scatter_entangle.cli import run


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    """Parse our commented CSV into (comment lines, dict of string columns)."""
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    return comments, cols


DELTA_PURITY_CFG = {
    "masses": {"mu1": 0.2},
    "potential": {"kind": "delta", "alpha": 6.25},
    "state": {"k": 1.0, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
}


def test_amplitudes_table(tmp_path):
    cfg = write_config(
        tmp_path,
        "amp.json",
        {
            "masses": {"mu1": 0.2},
            "potential": {"kind": "delta", "alpha": 2.5},
            "q_grid": {"start": 0.5, "stop": 1.5, "num": 3, "unit": "b"},
        },
    )
    out = tmp_path / "amp.csv"
    assert run(["amplitudes", "--config", str(cfg), "--out", str(out)]) == 0
    comments, cols = read_csv(out)
    assert any("config-sha256" in c for c in comments)
    assert list(cols) == ["q", "re_t", "im_t", "re_r", "im_r", "T", "R", "unitarity_residual"]
    assert [float(v) for v in cols["q"]] == [0.5, 1.0, 1.5]
    # at q = b the delta splits the flux evenly
    assert float(cols["T"][1]) == pytest.approx(0.5, rel=1e-14)
    assert max(float(v) for v in cols["unitarity_residual"]) < 1e-12


def test_purity_report_json(tmp_path):
    cfg = write_config(tmp_path, "pur.json", DELTA_PURITY_CFG)
    out = tmp_path / "pur.json.out"
    assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "purity"
    assert payload["inputs"]["mu1"] == 0.2
    assert payload["inputs"]["schulman_satisfied"] is False
    rep = payload["report"]
    assert rep["converged"] is True
    assert 0.0 < rep["purity"] <= 1.0
    assert rep["purity"] == pytest.approx(rep["purity_tra"] + rep["purity_ref"])
    assert rep["overlap"] < 1e-8
    approx = payload["approximations"]
    assert approx["purity_CR"] <= approx["purity_C"] + 1e-15
    assert approx["T"] + approx["R"] == pytest.approx(1.0, abs=1e-12)


def test_purity_schulman_flag(tmp_path):
    cfg_dict = dict(DELTA_PURITY_CFG)
    cfg_dict["state"] = {"k": 1.0, "sigma1_over_k": 0.05, "sigma2_over_k": 0.1}
    cfg = write_config(tmp_path, "schul.json", cfg_dict)
    out = tmp_path / "schul.out"
    assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["inputs"]["schulman_satisfied"] is True
    approx = payload["approximations"]
    assert approx["reflected_purity"] == pytest.approx(1.0, abs=1e-12)
    assert approx["purity_CR"] == pytest.approx(approx["purity_C"], abs=1e-12)


def test_purity_without_potential(tmp_path):
    cfg = write_config(
        tmp_path,
        "free.json",
        {
            "masses": {"mu1": 0.5},
            "potential": {"kind": "none"},
            "state": {"k": 1.0, "sigma1": 0.1, "sigma2": 0.2},
        },
    )
    out = tmp_path / "free.out"
    assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["approximations"] is None
    assert payload["report"]["purity"] == pytest.approx(1.0, abs=1e-9)
    assert payload["report"]["purity_tra"] is None


def test_purity_strict_flags_unconverged(tmp_path):
    cfg_dict = dict(DELTA_PURITY_CFG)
    cfg_dict["engine"] = {"base_n": 32, "n_cap": 32}
    cfg = write_config(tmp_path, "tight.json", cfg_dict)
    out = tmp_path / "tight.out"
    args = ["purity", "--config", str(cfg), "--out", str(out)]
    assert run(args) == 0
    assert run(args + ["--strict"]) == 3

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    payload = json.loads(out.read_text(), parse_constant=reject)
    assert payload["report"]["converged"] is False
    assert payload["report"]["refinement_error"] is None


def test_purity_pair_engine_settings(tmp_path):
    cfg_dict = dict(DELTA_PURITY_CFG, engine={"base_n": [64, 32], "n_cap": [256, 128]})
    cfg = write_config(tmp_path, "pair.json", cfg_dict)
    out = tmp_path / "pair.out"
    assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["engine"]["base_n"] == [64, 32]
    assert payload["report"]["tra"]["refinements"][0][:2] == [64, 32]


SWEEP_CFG = {
    "masses": {"mu1": 0.2},
    "potential": {"kind": "delta", "alpha": 6.25},
    "state": {"sigma1_over_k": 0.05, "sigma2_over_k": 0.1},
    "k_axis": {"start": 0.8, "stop": 1.3, "num": 4, "unit": "b"},
    "engine": {"rel_tol": 1e-4, "base_n": 32, "n_cap": 256},
}


def test_sweep_rows_and_approximation_ordering(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert len(cols["k"]) == 4
    np.testing.assert_allclose(
        [float(v) for v in cols["k"]], np.linspace(0.8, 1.3, 4), rtol=1e-15
    )
    assert all(v == "true" for v in cols["converged"])
    assert all(v == "" for v in cols["error"])
    for c, cr in zip(cols["purity_C"], cols["purity_CR"]):
        assert float(cr) <= float(c) + 1e-15
    for exact in cols["purity_exact"]:
        assert 0.0 < float(exact) <= 1.0


def test_sweep_output_is_order_stable_across_workers(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    out1 = tmp_path / "w1.csv"
    out3 = tmp_path / "w3.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["sweep", "--config", str(cfg), "--out", str(out3), "--workers", "3"]) == 0
    assert out1.read_bytes() == out3.read_bytes()


DOUBLE_DELTA = {"kind": "double_delta", "alpha": 6.25, "half_separation_times_strength": 10.0}


def test_sweep_runs_no_eigensolve(tmp_path, capsys, monkeypatch):
    # no sweep column reads the Schmidt spectrum, so a sweep must not pay for it
    engine = {"rel_tol": 1e-4, "base_n": 32, "n_cap": 128, "overlap_n": 64}
    sweep_cfg = write_config(
        tmp_path,
        "sweep.json",
        {
            "masses": {"mu1": 0.2},
            "potential": DOUBLE_DELTA,
            "state": {"sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
            "k_axis": {"start": 0.3, "stop": 0.6, "num": 3, "unit": "b"},
            "engine": engine,
        },
    )
    capsys.readouterr()
    assert run(["sweep", "--config", str(sweep_cfg)]) == 0
    expected = capsys.readouterr().out
    assert "Error" not in expected  # every row computed, so the error column is empty

    def no_eigensolve(wam):
        raise AssertionError("the sweep asked for a Schmidt spectrum")

    monkeypatch.setattr(purity, "_schmidt_spectrum", no_eigensolve)
    for workers in ("1", "2"):
        assert run(["sweep", "--config", str(sweep_cfg), "--workers", workers]) == 0
        assert capsys.readouterr().out == expected
    monkeypatch.undo()

    purity_cfg = write_config(
        tmp_path,
        "purity.json",
        {
            "masses": {"mu1": 0.2},
            "potential": DOUBLE_DELTA,
            "state": {"k": 0.45, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
            "engine": engine,
        },
    )
    assert run(["purity", "--config", str(purity_cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["schmidt_rank_full"] >= rep["schmidt_rank_reported"] > 1
    assert sum(rep["schmidt_spectrum"]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_strict_exit_code(tmp_path):
    cfg_dict = dict(SWEEP_CFG)
    cfg_dict["engine"] = {"rel_tol": 1e-9, "base_n": 32, "n_cap": 32}
    cfg_dict["k_axis"] = {"start": 1.0, "stop": 1.0, "num": 1, "unit": "b"}
    cfg = write_config(tmp_path, "tight.json", cfg_dict)
    out = tmp_path / "tight.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert run(["sweep", "--config", str(cfg), "--out", str(out), "--strict"]) == 3


def test_reflectmap_equal_mass_row_is_unity(tmp_path):
    cfg = write_config(
        tmp_path,
        "rmap.json",
        {
            "mu1_axis": {"values": [0.5]},
            "c_axis": {"values": [0.25, 0.5, 1.0, 2.0, 4.0]},
        },
    )
    out = tmp_path / "rmap.csv"
    assert run(["reflectmap", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert [float(v) for v in cols["purity"]] == [1.0] * 5


def test_validate_passes(capsys):
    assert run(["validate"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text
    assert "[FAIL]" not in text


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.update(extra_key=1),
        lambda d: d["state"].update(sigma1=0.1),  # mixes width conventions
        lambda d: d["state"].pop("sigma1_over_k"),
        lambda d: d.update(engine={"base_n": 48}),
        lambda d: d.update(engine={"base_n": 64, "n_cap": 32}),
        lambda d: d["potential"].update(kind="unknown"),
        lambda d: d.update(masses={"mu1": 1.5}),
        lambda d: d.update(engine={"n_cap": [1024, 96]}),
        lambda d: d.update(engine={"base_n": [64, 128], "n_cap": [1024, 64]}),
        lambda d: d.update(engine={"overlap_n": 48}),
    ],
)
def test_bad_purity_configs_exit_2(tmp_path, capsys, mangle):
    # the sweep records per-point failures as rows and exits 0, so a bad
    # engine setting must be caught before any point runs
    for command, base in (("purity", DELTA_PURITY_CFG), ("sweep", SWEEP_CFG)):
        cfg_dict = json.loads(json.dumps(base))
        mangle(cfg_dict)
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert run([command, "--config", str(cfg)]) == 2, command
        assert "config error" in capsys.readouterr().err


AMPLITUDES_CFG = {
    "masses": {"mu1": 0.2},
    "potential": {"kind": "double_delta", "alpha": 2.5, "half_separation": 0.4},
    "q_grid": {"start": 0.5, "stop": 1.5, "num": 5},
}
REFLECTMAP_CFG = {
    "mu1_axis": {"start": 0.1, "stop": 0.9, "num": 3},
    "c_axis": {"values": [0.5, 2.0]},
}


@pytest.mark.parametrize(
    "command, cfg_dict",
    [
        ("amplitudes", AMPLITUDES_CFG),
        ("purity", dict(DELTA_PURITY_CFG, engine={"rel_tol": 1e-4, "n_cap": 128})),
        ("sweep", SWEEP_CFG),
        ("reflectmap", REFLECTMAP_CFG),
    ],
)
def test_stdout_and_out_file_carry_the_same_bytes(tmp_path, capsys, command, cfg_dict):
    cfg = write_config(tmp_path, "cfg.json", cfg_dict)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize("argv", [["purity"], ["sweep"], ["sweep", "--workers", "2"]])
def test_unitarity_violation_aborts_the_run(tmp_path, capsys, monkeypatch, argv):
    def leaky(self, q):
        return AmplitudePair(0.8 + 0j, 0.8 + 0j)

    monkeypatch.setattr(AmplitudeModel, "amplitudes", leaky)
    cfg = write_config(tmp_path, "cfg.json", SWEEP_CFG if argv[0] == "sweep" else DELTA_PURITY_CFG)
    assert run(argv + ["--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{argv[0]} aborted: unitarity violated at k = ")


def test_missing_and_malformed_config_files(tmp_path, capsys):
    assert run(["purity", "--config", str(tmp_path / "nope.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["purity", "--config", str(broken)]) == 2
    capsys.readouterr()


def test_unit_without_strength_scale_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "hc.json",
        {
            "masses": {"mu1": 0.2},
            "potential": {"kind": "hard_core"},
            "state": {"sigma1_over_k": 0.05, "sigma2_over_k": 0.1},
            "k_axis": {"start": 0.5, "stop": 1.0, "num": 2, "unit": "b"},
        },
    )
    assert run(["sweep", "--config", str(cfg)]) == 2
    assert "strength scale" in capsys.readouterr().err


def test_rel_tol_override_range(tmp_path, capsys):
    cfg = write_config(tmp_path, "pur.json", DELTA_PURITY_CFG)
    assert run(["purity", "--config", str(cfg), "--rel-tol", "0.5"]) == 2
    assert "--rel-tol" in capsys.readouterr().err


def test_double_delta_alternate_parameterization(tmp_path):
    # fixing a*b instead of a must land on the same physics
    base = {
        "masses": {"mu1": 0.2},
        "state": {"k": 0.1, "sigma1": 0.001, "sigma2": 0.0005},
        "engine": {"rel_tol": 1e-4, "base_n": 32, "n_cap": 256},
    }
    by_a = dict(base)
    by_a["potential"] = {"kind": "double_delta", "alpha": 6.25, "half_separation": 10.0}
    by_ab = dict(base)
    by_ab["potential"] = {
        "kind": "double_delta",
        "alpha": 6.25,
        "half_separation_times_strength": 10.0,
    }
    outs = []
    for name, cfg_dict in (("a.json", by_a), ("ab.json", by_ab)):
        cfg = write_config(tmp_path, name, cfg_dict)
        out = tmp_path / (name + ".out")
        assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(json.loads(out.read_text())["report"]["purity"])
    # b = mu_red * alpha = 1.0 here, so a = 10 and a*b = 10 coincide
    assert outs[0] == pytest.approx(outs[1], rel=1e-12)
