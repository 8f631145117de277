"""The CI workflow parses, its shell steps are valid bash, and its reference
sweep runs the benchmark's reference config."""

import json
import re
import runpy
import shutil
import subprocess
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

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
