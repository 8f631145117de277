import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scatter_entangle
from scatter_entangle import cli, purity
from scatter_entangle.amplitudes import AmplitudeModel, AmplitudePair
from scatter_entangle.analytic import reflected_gaussian_purity
from scatter_entangle.cli import run
from scatter_entangle.kinematics import MassPartition
from scatter_entangle.validate import CheckResult
from scatter_entangle.wavefunction import GaussianInState, Mode, ModeWavefunction


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path):
    """Parse our commented CSV into (comment lines, dict of string columns)."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    header, *rows = csv.reader(line for line in lines if not line.startswith("#"))
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


def test_amplitudes_table_of_one_row(tmp_path):
    # q_grid shares k_axis's schema, which allows a single point
    q_grid = {"start": 0.5, "stop": 1.5, "num": 1, "unit": "b"}
    cfg = write_config(tmp_path, "amp.json", dict(AMPLITUDES_CFG, q_grid=q_grid))
    out = tmp_path / "amp.csv"
    assert run(["amplitudes", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["q"] == ["0.5"]


def test_purity_report_json(tmp_path):
    cfg = write_config(tmp_path, "pur.json", DELTA_PURITY_CFG)
    out = tmp_path / "pur.json.out"
    assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "purity"
    assert payload["engine"] == purity.check_ladder()  # the config sets no $.engine
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
    # one level per branch, judged by its every-other-node subgrid
    assert [len(payload["report"][b]["refinements"]) for b in ("tra", "ref")] == [1, 1]
    assert payload["report"]["refinement_error"] > payload["engine"]["rel_tol"]


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


@pytest.mark.parametrize("value", [True, False])
def test_a_numpy_bool_prints_as_a_python_bool(value):
    assert cli._fmt(np.bool_(value)) == cli._fmt(value) == ("true" if value else "false")


def test_sweep_output_is_order_stable_across_workers(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    out1 = tmp_path / "w1.csv"
    out3 = tmp_path / "w3.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run(["sweep", "--config", str(cfg), "--out", str(out3), "--workers", "3"]) == 0
    assert out1.read_bytes() == out3.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, workers):
    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--config", str(cfg), "--workers", workers])
    assert exc.value.code == 2
    assert f"--workers: must be at least 1, got {workers}" in capsys.readouterr().err


DOUBLE_DELTA = {"kind": "double_delta", "alpha": 6.25, "half_separation_times_strength": 10.0}


def test_sweep_runs_no_eigensolve(tmp_path, capsys, monkeypatch):
    # no sweep column reads the Schmidt spectrum, so a sweep must not pay for it
    engine = {"rel_tol": 1e-4, "base_n": 32, "n_cap": 128}
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

    def no_eigensolve(g):
        raise AssertionError("the sweep asked for a Schmidt spectrum")

    monkeypatch.setattr(purity, "_schmidt_spectrum", no_eigensolve)
    for workers in ("1", "2"):
        assert run(["sweep", "--config", str(sweep_cfg), "--workers", workers]) == 0
        assert capsys.readouterr().out == expected
    monkeypatch.undo()

    purity_dict = {
        "masses": {"mu1": 0.2},
        "potential": DOUBLE_DELTA,
        "state": {"k": 0.45, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
        "engine": engine,
    }
    purity_cfg = write_config(tmp_path, "purity.json", purity_dict)
    assert run(["purity", "--config", str(purity_cfg)]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    assert rep["schmidt_rank_full"] >= rep["schmidt_rank_reported"] > 1
    # the CLI prints the spectrum's head; the whole spectrum sums to 1, and
    # the head alone falls short by the weight past its last entry
    mp = cli._masses_from(purity_dict)
    model = cli._potential_from(purity_dict, mp)
    state = cli._state_from(purity_dict["state"], mp, model)
    lam = purity.purity_out(state, model, **engine).schmidt_spectrum
    assert lam.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep["schmidt_spectrum"] == lam[: rep["schmidt_rank_reported"]].tolist()


def _python(args):
    """Run a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    src = str(Path(scatter_entangle.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_module_entry_point_runs_the_cli():
    proc = _python(["-m", "scatter_entangle.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    for command in ("amplitudes", "purity", "sweep", "reflectmap", "validate"):
        assert command in proc.stdout


_DEFECTIVE_SWEEP = """
from scatter_entangle import cli

def purity_out(*args, **kwargs):
    raise TypeError("a defect in the engine")

cli.purity_out = purity_out
cli.main()
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_exits_1_on_an_engine_defect(tmp_path, workers):
    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    proc = _python(["-c", _DEFECTIVE_SWEEP, "sweep", "--config", str(cfg), "--workers", workers])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "TypeError: a defect in the engine" in proc.stderr


@pytest.mark.parametrize(
    "exc",
    [
        purity.ZeroWavefunctionError("both scattering branches vanish"),
        FloatingPointError("3 non-finite samples on 64x64 grid"),
    ],
    ids=lambda e: type(e).__name__,
)
@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_records_a_points_own_failure_in_its_row(tmp_path, monkeypatch, exc, workers):
    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    failing_k = np.linspace(0.8, 1.3, 4)[1]  # in units of b = mu_red * alpha = 1
    real = cli.purity_out

    def purity_out(state, model, **kw):
        if state.k == pytest.approx(failing_k, rel=1e-12):
            raise exc
        return real(state, model, **kw)

    monkeypatch.setattr(cli, "purity_out", purity_out)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 0
    _, cols = read_csv(out)
    assert cols["error"] == ["", f"{type(exc).__name__}: {exc}", "", ""]
    assert cols["purity_exact"][1] == "nan" and cols["T"][1] == "nan"
    assert cols["converged"] == ["true", "false", "true", "true"]


def test_sweep_strict_exit_code(tmp_path):
    # a tilted packet, whose one 32^2 level is far off from its subgrid
    cfg_dict = dict(SWEEP_CFG, state={"sigma1_over_k": 0.05, "sigma2_over_k": 0.3})
    cfg_dict["engine"] = {"rel_tol": 1e-9, "base_n": 32, "n_cap": 32}
    cfg_dict["k_axis"] = {"start": 1.0, "stop": 1.0, "num": 1, "unit": "b"}
    cfg = write_config(tmp_path, "tight.json", cfg_dict)
    out = tmp_path / "tight.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert run(["sweep", "--config", str(cfg), "--out", str(out), "--strict"]) == 3


def test_sweep_records_a_rejected_state_in_its_row(tmp_path, capsys):
    # the smallest subnormal k passes the schema, but its widths underflow to 0
    cfg_dict = dict(SWEEP_CFG, k_axis={"start": 5e-324, "stop": 5e-324, "num": 1})
    cfg = write_config(tmp_path, "tiny.json", cfg_dict)
    out = tmp_path / "tiny.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    # the error text holds commas, so its field is quoted
    row = out.read_text().splitlines()[-1]
    assert row.startswith("4.9406564584124654e-324,0.20000000000000001,nan,")
    assert row.endswith(',0,nan,false,"ValueError: momentum widths must be positive, got (0.0, 0.0)"')
    _, cols = read_csv(out)
    assert cols["error"] == ["ValueError: momentum widths must be positive, got (0.0, 0.0)"]
    assert cols["converged"] == ["false"]
    assert run(["sweep", "--config", str(cfg), "--out", str(out), "--strict"]) == 3
    assert "strict: 1 of 1 sweep points unconverged or failed" in capsys.readouterr().err


def test_reflectmap_equal_mass_row_is_unity(tmp_path):
    cfg = write_config(
        tmp_path,
        "rmap.json",
        {
            "mu1_axis": {"values": [0.5]},
            # c^2 underflows at 1e-200 and overflows at 1e200
            "c_axis": {"values": [1e-200, 0.25, 0.5, 1.0, 2.0, 4.0, 1e200]},
        },
    )
    out = tmp_path / "rmap.csv"
    assert run(["reflectmap", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert [float(v) for v in cols["purity"]] == [1.0] * 7


def test_validate_passes(capsys):
    assert run(["validate"]) == 0
    text = capsys.readouterr().out
    assert "[PASS]" in text
    assert "[FAIL]" not in text


def test_validate_fails_when_a_check_fails(monkeypatch, capsys):
    results = [
        CheckResult("first.check", True, "fine"),
        CheckResult("second", False, "residual 1.00e-01"),
        CheckResult("third.check", True, "fine"),
    ]
    monkeypatch.setattr(cli, "run_all", lambda: results)
    assert run(["validate"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] first.check  fine",
        "[FAIL] second       residual 1.00e-01",
        "[PASS] third.check  fine",
        "2/3 checks passed",
    ]


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
        lambda d: d.update(engine={"nsig": 8.0}),  # the windows are fixed at +-8 sigma
        # json.dumps writes NaN and Infinity, which json.loads would accept
        lambda d: d.update(engine={"rel_tol": float("nan")}),
        lambda d: d.update(masses={"mu1": float("nan")}),
        lambda d: d["potential"].update(alpha=float("nan")),
        lambda d: d["potential"].update(alpha=float("inf")),  # would be a hard wall
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


@pytest.mark.parametrize(
    "engine, message",
    [
        ({"rel_tol": 0.2}, "rel_tol must be at most 0.1, got 0.2"),
        ({"rel_tol": 1e-11}, "rel_tol must be at least 1e-10, got 1e-11"),
        ({"base_n": 16}, "base_n for n1 must be a power of two >= 32, got 16"),
        ({"n_cap": [1024, -64]}, "n_cap for n2 must be a power of two >= 32, got -64"),
    ],
)
def test_engine_settings_out_of_range_exit_2_with_the_engines_message(
    tmp_path, capsys, engine, message
):
    # the schema checks only types and shapes; purity.check_ladder owns the ranges
    for command, base in (("purity", DELTA_PURITY_CFG), ("sweep", SWEEP_CFG)):
        cfg = write_config(tmp_path, "bad.json", dict(base, engine=engine))
        assert run([command, "--config", str(cfg)]) == 2, command
        assert capsys.readouterr().err == f"config error: $.engine: {message}\n"


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
    broken.write_bytes(b'{"masses": "\xff"}')  # not UTF-8
    assert run(["purity", "--config", str(broken)]) == 2
    assert "config error: config is not valid JSON: 'utf-8' codec" in capsys.readouterr().err
    broken.write_text('{"masses": {"mu1": -Infinity}}')
    assert run(["purity", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config is not valid JSON: -Infinity is not a JSON number\n"
    broken.write_text('{"potential": {"kind": "delta", "alpha": 1e400}}')  # not inf
    assert run(["purity", "--config", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err == "config error: config is not valid JSON: 1e400 is out of range for a double\n"
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1, 2]")
    assert run(["purity", "--config", str(not_an_object)]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


BEYOND_DOUBLE = "1" + "0" * 400  # a JSON integer that no double holds


@pytest.mark.parametrize(
    "command, cfg_dict, path",
    [
        ("amplitudes", AMPLITUDES_CFG, ("potential", "alpha")),
        ("amplitudes", AMPLITUDES_CFG, ("masses", "M")),
        ("purity", DELTA_PURITY_CFG, ("potential", "alpha")),
        ("purity", DELTA_PURITY_CFG, ("state", "k")),
        ("sweep", SWEEP_CFG, ("potential", "alpha")),
    ],
)
def test_an_integer_beyond_the_double_range_is_a_config_error(
    tmp_path, capsys, command, cfg_dict, path
):
    cfg_dict = json.loads(json.dumps(cfg_dict))
    cfg_dict[path[0]][path[1]] = 0  # a placeholder that the text below replaces
    text = json.dumps(cfg_dict).replace(f'"{path[1]}": 0', f'"{path[1]}": {BEYOND_DOUBLE}')
    cfg = tmp_path / "big.json"
    cfg.write_text(text)
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: config is not valid JSON: {BEYOND_DOUBLE} is out of range for a double\n"
    )


@pytest.mark.parametrize(
    "command, cfg_dict",
    [
        ("amplitudes", AMPLITUDES_CFG),
        ("purity", dict(DELTA_PURITY_CFG, engine={"rel_tol": 1e-4, "n_cap": 128})),
        ("sweep", SWEEP_CFG),
        ("reflectmap", REFLECTMAP_CFG),
    ],
)
def test_an_out_path_that_cannot_be_opened_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, cfg_dict
):
    # --out is opened before any point is computed
    def not_reached(*args, **kw):
        raise AssertionError("a point ran before --out was opened")

    for name in ("_amplitudes", "purity_out", "reflected_gaussian_purity_mu_c"):
        monkeypatch.setattr(cli, name, not_reached)
    cfg = write_config(tmp_path, "cfg.json", cfg_dict)
    out = tmp_path / "missing" / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write output: [Errno 2] ")
    assert captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_an_existing_out_file_is_replaced_only_once_the_output_is_written(
    tmp_path, monkeypatch
):
    cfg = write_config(tmp_path, "cfg.json", SWEEP_CFG)
    expected = tmp_path / "expected.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(expected)]) == 0
    out = tmp_path / "out.csv"
    old = "x" * (2 * len(expected.read_text())) + "\n"
    out.write_text(old)
    # a longer old file is cut after the new output
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()
    # a device cannot be cut, and takes the output all the same
    assert run(["sweep", "--config", str(cfg), "--out", os.devnull]) == 0
    # a run that fails before writing leaves the file as it was
    out.write_text(old)

    def failing(state, model, **kw):
        raise FloatingPointError("no sample is finite")

    monkeypatch.setattr(cli, "purity_out", failing)
    pcfg = write_config(tmp_path, "purity.json", DELTA_PURITY_CFG)
    assert run(["purity", "--config", str(pcfg), "--out", str(out)]) == 2
    assert out.read_text() == old


@pytest.mark.parametrize(
    "command, cfg_dict, axis",
    [
        ("amplitudes", AMPLITUDES_CFG, "q_grid"),
        ("sweep", SWEEP_CFG, "k_axis"),
        ("reflectmap", REFLECTMAP_CFG, "mu1_axis"),
    ],
)
def test_an_axis_of_over_a_million_points_is_a_config_error(
    tmp_path, capsys, command, cfg_dict, axis
):
    # np.linspace cannot allocate 10^20 points; the schema stops them first
    cfg_dict = dict(cfg_dict, **{axis: dict(cfg_dict[axis], num=10**20)})
    cfg = write_config(tmp_path, "cfg.json", cfg_dict)
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: $.{axis}.num: 100000000000000000000"
        " is greater than the maximum of 1000000\n"
    )


@pytest.mark.parametrize(
    "command, cfg_dict, axis",
    [
        ("amplitudes", AMPLITUDES_CFG, "q_grid"),
        ("sweep", SWEEP_CFG, "k_axis"),
        ("reflectmap", REFLECTMAP_CFG, "mu1_axis"),
    ],
)
def test_an_axis_num_written_as_a_float_counts_as_its_integer(
    tmp_path, capsys, command, cfg_dict, axis
):
    # jsonschema counts 3.0 as an integer, which np.linspace does not take
    outputs = []
    for num in (3, 3.0):
        axis_cfg = dict(cfg_dict[axis], num=num)
        cfg = write_config(tmp_path, "cfg.json", dict(cfg_dict, **{axis: axis_cfg}))
        assert f'"num": {num}' in cfg.read_text()
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        outputs.append([line for line in lines if not line.startswith("# config-sha256: ")])
    assert outputs[0] == outputs[1]
    assert capsys.readouterr().err == ""


DOUBLE_DELTA_AB = {"kind": "double_delta", "alpha": 6.25, "half_separation_times_strength": 10.0}
# masses and potentials that the schema admits and the library rejects
LIBRARY_REJECTS = {
    # m1 + m2 overflows to inf, so mu1 = m1 / inf = 0
    "summed_masses_overflow": (
        {"masses": {"m1": 1e308, "m2": 1e308}},
        "$.masses: mass fraction mu1 must lie in (0, 1), got 0.0",
    ),
    # a = (a b) / (mu_red alpha) underflows to 0
    "half_separation_underflows": (
        {"potential": dict(DOUBLE_DELTA_AB, alpha=1e300, half_separation_times_strength=1e-300)},
        "$.potential: double delta needs a positive half separation",
    ),
    # mu_red alpha underflows to 0, which a b is divided by
    "strength_scale_underflows": (
        {
            "masses": {"mu1": 0.2, "M": 1e-300},
            "potential": dict(DOUBLE_DELTA_AB, alpha=1e-300, half_separation_times_strength=1.0),
        },
        "$.potential: float division by zero",
    ),
}


@pytest.mark.parametrize("case", LIBRARY_REJECTS)
@pytest.mark.parametrize(
    "command, cfg_dict",
    [("amplitudes", AMPLITUDES_CFG), ("purity", DELTA_PURITY_CFG), ("sweep", SWEEP_CFG)],
)
def test_masses_and_potentials_the_library_rejects_exit_2(
    tmp_path, capsys, command, cfg_dict, case
):
    overrides, message = LIBRARY_REJECTS[case]
    cfg = write_config(tmp_path, "cfg.json", dict(cfg_dict, **overrides))
    assert run([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message}\n"


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


@pytest.mark.parametrize("command, cfg_dict", [("purity", DELTA_PURITY_CFG), ("sweep", SWEEP_CFG)])
def test_rel_tol_flag_is_a_usage_error(tmp_path, capsys, command, cfg_dict):
    # the tolerance is $.engine.rel_tol alone, which the config's hash pins
    cfg = write_config(tmp_path, "cfg.json", cfg_dict)
    with pytest.raises(SystemExit) as usage:
        run([command, "--config", str(cfg), "--rel-tol", "1e-2"])
    assert usage.value.code == 2
    assert "unrecognized arguments: --rel-tol" in capsys.readouterr().err


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


def purity_payload(tmp_path, cfg_dict):
    """The `purity` JSON for a config, without the config's own hash."""
    cfg = write_config(tmp_path, "cfg.json", cfg_dict)
    out = tmp_path / "cfg.out"
    assert run(["purity", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload["config_sha256"]
    return payload


FAST_DELTA_CFG = dict(DELTA_PURITY_CFG, engine={"rel_tol": 1e-4, "base_n": 32, "n_cap": 128})


def test_k_over_b_is_k_in_units_of_b(tmp_path):
    by_ratio = json.loads(json.dumps(FAST_DELTA_CFG))
    by_ratio["state"] = {"k_over_b": 0.8, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1}
    by_k = json.loads(json.dumps(by_ratio))
    b = AmplitudeModel.dirac_delta(6.25, MassPartition(0.2)).strength_scale
    by_k["state"] = {"k": 0.8 * b, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1}
    assert b != 1.0
    assert purity_payload(tmp_path, by_ratio) == purity_payload(tmp_path, by_k)


def test_individual_masses_match_mass_fraction_and_total(tmp_path):
    by_masses = dict(FAST_DELTA_CFG, masses={"m1": 0.5, "m2": 2.0})
    by_fraction = dict(FAST_DELTA_CFG, masses={"mu1": 0.2, "M": 2.5})
    payload = purity_payload(tmp_path, by_masses)
    assert payload["inputs"]["M"] == 2.5
    assert payload == purity_payload(tmp_path, by_fraction)


@pytest.mark.parametrize("k_over_b", [1e-90, 1e90])
def test_purity_reports_the_limit_where_a_branch_is_negligible(tmp_path, k_over_b):
    # the weak branch carries T or R below 1e-162, too little to square its norm
    state = {"k_over_b": k_over_b, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1}
    payload = purity_payload(tmp_path, dict(DELTA_PURITY_CFG, state=state))
    rep = payload["report"]
    limit = reflected_gaussian_purity(MassPartition(0.2), 0.2, 0.1) if k_over_b < 1 else 1.0
    assert rep["converged"] is True
    assert rep["purity"] == pytest.approx(limit, rel=payload["engine"]["rel_tol"])
    assert ("tra" in rep, "ref" in rep) == (k_over_b > 1, k_over_b < 1)


def test_sweep_rows_where_a_branch_is_negligible(tmp_path):
    k_axis = {"start": 1e-150, "stop": 1e150, "num": 2, "unit": "b"}
    cfg = write_config(tmp_path, "far.json", dict(SWEEP_CFG, k_axis=k_axis))
    out = tmp_path / "far.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out), "--strict"]) == 0
    _, cols = read_csv(out)
    limits = [reflected_gaussian_purity(MassPartition(0.2), 0.05, 0.1), 1.0]
    for got, want in zip(cols["purity_exact"], limits):
        assert float(got) == pytest.approx(want, rel=SWEEP_CFG["engine"]["rel_tol"])
    assert (cols["purity_tra"][0], cols["purity_ref"][1]) == ("0", "0")
    assert cols["error"] == ["", ""]


@pytest.mark.parametrize("k", [1e-170, 1e160])
def test_a_state_beyond_the_double_range_is_rejected(tmp_path, capsys, k):
    rejected = "k, sigma1 and sigma2 must lie in"
    state = {"k": k, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1}
    cfg = write_config(tmp_path, "pur.json", dict(DELTA_PURITY_CFG, state=state))
    assert run(["purity", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: $.state: {rejected}")
    k_axis = {"start": k, "stop": k, "num": 1}
    cfg = write_config(tmp_path, "sweep.json", dict(SWEEP_CFG, k_axis=k_axis))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["error"][0].startswith(f"ValueError: {rejected}")


@pytest.mark.parametrize(
    "state, message",
    [
        ({"k": 1.0, "sigma1": 1.0, "sigma2": 0.1}, "max(sigma)/k = 1 >= 1"),
        # phases p * a1 beyond a double's range
        (
            {"k": 1.0, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1, "a1": 1e308},
            "|a1|, |a2| and k times each must be at most",
        ),
    ],
)
def test_state_rejected_by_the_in_state_exits_2(tmp_path, capsys, state, message):
    cfg = write_config(tmp_path, "bad.json", dict(DELTA_PURITY_CFG, state=state))
    assert run(["purity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: $.state: {message}")


# a = 1e308 puts the double delta's phase 2 q a beyond a double from q = 0.9
OVERFLOWING_DOUBLE_DELTA = {"kind": "double_delta", "alpha": 6.25, "half_separation": 1e308}
NOT_FINITE = "amplitudes are not finite at absolute momentum q = "


def test_amplitudes_that_overflow_are_a_config_error(tmp_path, capsys):
    potential = dict(OVERFLOWING_DOUBLE_DELTA, half_separation=10.0)
    q_grid = {"start": 1e306, "stop": 1e308, "num": 3}
    cfg = write_config(
        tmp_path, "amp.json", {"masses": {"mu1": 0.2}, "potential": potential, "q_grid": q_grid}
    )
    assert run(["amplitudes", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    first_bad = float(np.linspace(1e306, 1e308, 3)[1])  # 2 q a overflows from q = 9e306
    assert captured.err == f"config error: {NOT_FINITE}{first_bad!r}\n"


def test_amplitudes_that_overflow_at_k_are_a_config_error_or_a_row_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "pur.json", dict(DELTA_PURITY_CFG, potential=OVERFLOWING_DOUBLE_DELTA)
    )
    assert run(["purity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {NOT_FINITE}1.0\n"
    k_axis = {"start": 1.0, "stop": 1.0, "num": 1}
    cfg_dict = dict(SWEEP_CFG, potential=OVERFLOWING_DOUBLE_DELTA, k_axis=k_axis)
    cfg = write_config(tmp_path, "sweep.json", cfg_dict)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert cols["error"] == [f"ConfigError: {NOT_FINITE}1.0"]
    assert (cols["T"], cols["converged"]) == (["nan"], ["false"])
    assert capsys.readouterr().err == ""


def _non_finite_samples(k, widths_over_k):
    """Non-finite samples of the overflowing double delta on its transmitted ladder's first grid."""
    mp = MassPartition(0.2)
    model = AmplitudeModel.double_dirac_delta(6.25, OVERFLOWING_DOUBLE_DELTA["half_separation"], mp)
    state = GaussianInState(k, widths_over_k[0] * k, widths_over_k[1] * k, mp)
    grid = purity.mode_grid(state, Mode.TRANSMITTED, 64)
    x1, _ = purity.axis_nodes(grid.n1, grid.window1)
    x2, _ = purity.axis_nodes(grid.n2, grid.window2)
    with np.errstate(all="ignore"):
        vals = ModeWavefunction(Mode.TRANSMITTED, state, model)(x1[:, None], x2[None, :])
    return np.count_nonzero(~np.isfinite(vals))


# the double delta's phase 2 q a is finite at k = 0.5 but overflows on the
# window from q = 0.9; the hard core's ridge, 1e-100 wide on a 1e101 window,
# is resolved by no grid up to the cap, and its squared norm's square overflows
QUADRATURE_FAILURES = [
    pytest.param(
        {"potential": OVERFLOWING_DOUBLE_DELTA, "k": 0.5, "widths_over_k": (0.2, 0.1)},
        f"FloatingPointError: {_non_finite_samples(0.5, (0.2, 0.1))} non-finite samples"
        " on 64x64 grid, first at ",
        id="non_finite_samples",
    ),
    pytest.param(
        {"potential": {"kind": "hard_core"}, "k": 1e100, "widths_over_k": (1e-200, 0.1)},
        "FloatingPointError: wave function not resolved on the grid (squared norm ",
        id="unresolved_norm",
    ),
]


def _failing_config(command, potential, k, widths_over_k):
    s1, s2 = widths_over_k
    cfg = {"masses": {"mu1": 0.2}, "potential": potential}
    if command == "purity":
        return dict(cfg, state={"k": k, "sigma1": s1 * k, "sigma2": s2 * k})
    state = {"sigma1_over_k": s1, "sigma2_over_k": s2}
    return dict(cfg, state=state, k_axis={"start": k, "stop": k, "num": 1})


@pytest.mark.parametrize("point, message", QUADRATURE_FAILURES)
def test_a_points_own_quadrature_failure_is_a_config_error_in_purity(
    tmp_path, capsys, point, message
):
    cfg = write_config(tmp_path, "pur.json", _failing_config("purity", **point))
    assert run(["purity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("point, message", QUADRATURE_FAILURES)
def test_a_points_own_quadrature_failure_is_a_row_error_in_sweep(
    tmp_path, capsys, point, message
):
    cfg = write_config(tmp_path, "sweep.json", _failing_config("sweep", **point))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    (error,) = cols["error"]
    assert error.startswith(message)
    assert (cols["purity_exact"], cols["converged"]) == (["nan"], ["false"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["purity", "sweep"])
def test_quadrature_failures_leak_no_warning_from_the_engine(tmp_path, command):
    # pytest's warning filter does not reach a fresh interpreter; -W error does
    cfg_dicts = [_failing_config(command, **p.values[0]) for p in QUADRATURE_FAILURES]
    for i, cfg_dict in enumerate(cfg_dicts):
        cfg = write_config(tmp_path, f"{command}{i}.json", cfg_dict)
        proc = _python(["-W", "error", "-m", "scatter_entangle.cli", command, "--config", str(cfg)])
        assert proc.returncode == (2 if command == "purity" else 0), proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_a_non_finite_overlap_integrand_fails_loudly(tmp_path, capsys, monkeypatch):
    real = AmplitudeModel.amplitudes

    def nan_on_the_overlap_nodes(self, q):
        t, r = real(self, q)
        if np.size(q) == 1024:  # the overlap's q nodes; no ladder's q-lattice holds 1024
            t = np.full_like(t, np.nan)
        return AmplitudePair(t, r)

    monkeypatch.setattr(AmplitudeModel, "amplitudes", nan_on_the_overlap_nodes)
    message = "FloatingPointError: 1024 non-finite overlap integrands on 1024 relative momenta"
    mp = MassPartition(0.2)
    state = GaussianInState(k=1.0, sigma1=0.2, sigma2=0.1, masses=mp)
    with pytest.raises(FloatingPointError, match=message.split(": ")[1]):
        purity.purity_out(state, AmplitudeModel.dirac_delta(6.25, mp))

    cfg = write_config(tmp_path, "pur.json", DELTA_PURITY_CFG)
    assert run(["purity", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}")
    assert captured.err.count("\n") == 1

    cfg = write_config(tmp_path, "sweep.json", SWEEP_CFG)
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert all(error.startswith(message) for error in cols["error"])
    assert set(cols["purity_exact"]) == {"nan"} and set(cols["converged"]) == {"false"}
    assert capsys.readouterr().err == ""


# Packets too narrow for their k: a narrow axis' nodes collapse below ulp(k),
# so the ladder agrees with itself on samples that do not resolve the state.
# At the top of the state range (k = 1.6e151, sigma = 1e-152) k / sigma_q
# is about 1e303, whose square overflows; the overlap's Gaussian factor is 0.
UNRESOLVED = {
    "top_of_range": ({"kind": "delta", "alpha": 1e152}, (6.25e-304, 6.25e-304)),
    "collapsed_nodes": ({"kind": "delta", "alpha": 6.25}, (2e-18, 1e-18)),
}


@pytest.mark.parametrize("case", UNRESOLVED)
def test_an_unresolved_packet_is_unconverged(tmp_path, case):
    potential, (s1, s2) = UNRESOLVED[case]
    cfg_dict = {"masses": {"mu1": 0.2}, "potential": potential}
    widths = {"sigma1_over_k": s1, "sigma2_over_k": s2}
    cfg = write_config(tmp_path, "pur.json", dict(cfg_dict, state={"k_over_b": 1.0, **widths}))
    # pytest's warning filter does not reach a fresh interpreter; -W error does
    argv = ["-W", "error", "-m", "scatter_entangle.cli", "purity", "--config", str(cfg)]
    proc = _python(argv + ["--strict"])
    assert proc.returncode == 3, proc.stderr
    rep = json.loads(proc.stdout)["report"]
    assert rep["refinement_error"] < 1e-6 and rep["converged"] is False
    assert abs(rep["norm_sq"] - 1.0) > 1.0
    assert proc.stderr == (
        f"strict: purity unconverged at grid ({rep['grid_n'][0]}, {rep['grid_n'][1]}) "
        f"(refinement error {rep['refinement_error']:.3e}, squared norm {rep['norm_sq']:.6g})\n"
    )

    k_axis = {"start": 1.0, "stop": 1.0, "num": 1, "unit": "b"}
    cfg = write_config(tmp_path, "sweep.json", dict(cfg_dict, state=widths, k_axis=k_axis))
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    _, cols = read_csv(out)
    assert (cols["error"], cols["converged"]) == ([""], ["false"])


def test_every_config_object_is_closed():
    def objects(node):
        if isinstance(node, dict):
            if node.get("type") == "object":
                yield node
            for value in node.values():
                yield from objects(value)
        elif isinstance(node, list):
            for value in node:
                yield from objects(value)

    for schema in (
        cli.AMPLITUDES_SCHEMA,
        cli.PURITY_SCHEMA,
        cli.SWEEP_SCHEMA,
        cli.REFLECTMAP_SCHEMA,
    ):
        nodes = list(objects(schema))
        assert nodes and all(node["additionalProperties"] is False for node in nodes)


def test_a_width_ratio_whose_square_underflows_runs(tmp_path):
    # sigma2 / sigma1 = 1e-200, so c^2 underflows in the reflected purity
    state = {"k": 1e50, "sigma1": 1e49, "sigma2": 1e-151}
    cfg_dict = {"masses": {"mu1": 0.5}, "potential": {"kind": "hard_core"}, "state": state}
    payload = purity_payload(tmp_path, cfg_dict)
    assert payload["approximations"]["reflected_purity"] == 1.0
    assert payload["report"]["purity"] == pytest.approx(1.0, abs=1e-6)
    # the narrow axis' nodes collapse onto -k, below ulp(k), so the grid does
    # not resolve the normalized out-state: its squared norm reads 6.45
    assert payload["report"]["norm_sq"] == pytest.approx(6.45, abs=0.01)
    assert not payload["report"]["converged"]


def test_one_parser_serves_every_run(tmp_path, capsys):
    cfg = write_config(tmp_path, "pur.json", DELTA_PURITY_CFG)
    argv = ["purity", "--config", str(cfg)]
    with pytest.raises(SystemExit) as usage:
        run(["purity"])  # no --config
    assert usage.value.code == 2
    assert "required: --config" in capsys.readouterr().err
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert cli._parser() is cli._parser()
    assert cli._parser().format_help() == cli.build_parser().format_help()
