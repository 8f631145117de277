"""The CI workflow parses, its shell steps are valid bash, its command lines
are valid for the CLI and turn warnings into errors, the CLI-outputs step
compares the reference sweep's one- and two-worker CSVs that
tests/cli_outputs.py writes, and a step checks the tolerance audit's data
against its script."""

import shlex
import shutil
import subprocess
from pathlib import Path

import pytest
import yaml

import cli_outputs
from scatter_entangle import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def steps():
    doc = yaml.safe_load(WORKFLOW.read_text())
    return [step for job in doc["jobs"].values() for step in job["steps"]]


def test_workflow_parses():
    assert any("run" in step for step in steps())


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_every_run_block_is_valid_bash():
    for step in steps():
        if "run" in step:
            res = subprocess.run(["bash", "-n"], input=step["run"], capture_output=True, text=True)
            assert res.returncode == 0, f"{step.get('name')}: {res.stderr}"


def test_the_cli_outputs_step_compares_the_reference_sweeps():
    # the benchmark's reference config must converge on every row with one
    # worker, and give the same CSV with two
    (run,) = [s["run"] for s in steps() if "python tests/cli_outputs.py" in s.get("run", "")]
    assert 'cmp "$first/reference_w1.out" "$first/reference_w2.out"' in run.splitlines()
    runs = {name: (args, cfg) for name, args, cfg in cli_outputs.runs()}
    assert runs["reference_w1"][0] == ["sweep", "--workers", "1", "--strict"]
    assert runs["reference_w2"] == (["sweep", "--workers", "2"], runs["reference_w1"][1])


def test_every_cli_line_parses(capsys):
    lines = [
        line.strip()
        for step in steps()
        for line in step.get("run", "").splitlines()
        if line.strip().startswith("scatter-entangle ")
    ]
    assert lines
    for line in lines:
        argv = shlex.split(line)[1:]
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit as exc:  # --help exits 0, a usage error 2
            assert exc.code == 0, f"{line}: {capsys.readouterr().err}"


def test_every_cli_step_turns_warnings_into_errors():
    # pytest's filterwarnings setting does not reach the processes a step runs;
    # tests/cli_outputs.py runs the CLI too, some configs of it only there
    cli_steps = [
        s for s in steps()
        if "scatter-entangle " in s.get("run", "") or "python tests/cli_outputs.py" in s.get("run", "")
    ]
    assert any("python tests/cli_outputs.py" in s["run"] for s in cli_steps)
    for step in cli_steps:
        assert step.get("env", {}).get("PYTHONWARNINGS") == "error", step.get("name")


def test_a_step_checks_the_tolerance_audit_data_against_its_script():
    lines = [line.strip() for step in steps() for line in step.get("run", "").splitlines()]
    assert "python tests/tolerance_audit.py --check" in lines
    assert (ROOT / "tests" / "tolerance_audit.py").is_file()
