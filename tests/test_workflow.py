"""The CI workflow parses, its shell steps are valid bash, its command lines
are valid for the CLI, its reference sweep runs the benchmark's
reference config, and a step checks the tolerance audit's data against its
script."""

import json
import re
import runpy
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest
import yaml

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


def test_reference_sweep_step_runs_the_benchmark_config():
    (run,) = [s["run"] for s in steps() if "scatter-entangle sweep" in s.get("run", "")]
    heredoc = re.search(r"<<'EOF'\n(.*?)\nEOF\n", run, re.S)
    assert heredoc is not None, run
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"), run_name="bench_workloads")
    assert json.loads(heredoc.group(1)) == workloads["ReferenceSweep"].CONFIG


def test_every_cli_line_parses(capsys):
    lines = [
        line.strip()
        for step in steps()
        for line in step.get("run", "").splitlines()
        if line.strip().startswith("scatter-entangle ")
    ]
    assert lines
    for line in lines:
        argv = shlex.split(line.replace("$cfg", "cfg.json"))[1:]
        if ">" in argv:  # a shell redirection ends the command's own arguments
            argv = argv[: argv.index(">")]
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
