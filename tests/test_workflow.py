"""The CI workflow parses, its shell steps are valid bash, its command lines
are valid for the CLI and turn warnings into errors, the CLI-outputs step
compares the reference sweep's one- and two-worker CSVs that
tests/cli_outputs.py writes, a step checks the tolerance audit's data
against its script, and one bench smoke step runs every workload traced and
then untraced, failing on the first run that is not "correct"."""

import json
import os
import shlex
import shutil
import subprocess
import sys
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


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
@pytest.mark.parametrize("correct", ["true", "false"])
def test_the_bench_smoke_checks_every_workload_traced_and_untraced(tmp_path, correct):
    # the step runs under a python3 that records each bench/run.py call and
    # prints the given "correct" as its last line; any other call is real
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    (run,) = [s["run"] for s in steps() if "bench/run.py" in s.get("run", "")]
    log = tmp_path / "calls"
    stub = tmp_path / "python3"
    stub.write_text(
        f'#!/bin/sh\nif [ "$1" = bench/run.py ]; then\n  echo "$@" >> {log}\n'
        f"  echo '{{\"correct\": {correct}}}'\n  exit 0\nfi\nexec {sys.executable} \"$@\"\n"
    )
    stub.chmod(0o755)
    env = dict(os.environ, PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}")
    res = subprocess.run(["bash", "-e", "-c", run], env=env, capture_output=True, text=True)
    calls = log.read_text().splitlines()
    if correct == "false":  # the first run that is not correct fails the step
        assert res.returncode != 0 and len(calls) == 1
        return
    assert res.returncode == 0, res.stderr
    assert calls == [
        f"bench/run.py --workload {w} --seed 0 --seconds 1 --trace {trace}"
        for trace in (1, 0)
        for w in workloads
    ]
