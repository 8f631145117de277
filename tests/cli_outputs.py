"""Write the outputs of a fixed set of CLI runs, for byte-identity checks.

    python tests/cli_outputs.py OUTDIR

Each run gets three files in OUTDIR, named after it: ``NAME.out`` (the
``--out`` file; ``validate`` takes none and has no such file),
``NAME.stdout`` and ``NAME.exit`` (the exit code). Every run is a fresh
``python -m scatter_entangle.cli`` that imports this checkout's ``src``,
so running the script in two checkouts and comparing the directories with
``diff -r`` shows any byte a change moves. The runs:

- every JSON config in README.md under a command's heading, read as
  tests/test_readme.py reads them;
- the benchmark's reference sweep (``ReferenceSweep.CONFIG`` of
  bench/workloads.py) with ``--workers 1 --strict`` and ``--workers 2``;
- ``validate``;
- the CI workflow's moved-positions config and its widest light corners;
- a ``none`` potential, and a double delta on wide grids (``base_n``
  [64, 128]).

Exits 1, after writing every output, if any run wrote to stderr: a
warning under ``PYTHONWARNINGS=error``, a traceback or a ``--strict``
message. About 6 s on a 2-core x86-64 machine.
"""

from __future__ import annotations

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]

NONE = {
    "masses": {"mu1": 0.2},
    "potential": {"kind": "none"},
    "state": {"k": 1.0, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
}
WIDE = {
    "masses": {"mu1": 0.2},
    "potential": {"kind": "double_delta", "alpha": 6.25, "half_separation_times_strength": 10.0},
    "state": {"k_over_b": 0.3, "sigma1_over_k": 0.2, "sigma2_over_k": 0.1},
    "engine": {"base_n": [64, 128], "n_cap": [512, 1024]},
}


def readme_configs():
    """(command, config) for each ```json block under a command's heading."""
    sections = re.split(r"^### (\S+)\n", (ROOT / "README.md").read_text(), flags=re.M)
    commands = {"amplitudes", "purity", "sweep", "reflectmap"}
    return [
        (heading, json.loads(block))
        for heading, body in zip(sections[1::2], sections[2::2])
        if heading in commands
        for block in re.findall(r"```json\n(.*?)```", body, flags=re.S)
    ]


def workflow_configs():
    """The CI's moved-positions heredoc and its light corners, by step name."""
    doc = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    runs = {s.get("name"): s.get("run", "") for job in doc["jobs"].values() for s in job["steps"]}
    moved = re.search(r"<<'EOF'\n(.*?)\nEOF\n", runs["Purity of packets with moved positions"], re.S)
    corners = re.findall(r"^\s*'(\{.*\})'$", runs["Light corners whose windows widen most converge"], re.M)
    return [json.loads(moved.group(1))] + [json.loads(c) for c in corners]


def runs():
    """(name, argv after the config, config or None) of every run."""
    out = [
        (f"readme_{command}_{i}", [command], cfg)
        for i, (command, cfg) in enumerate(readme_configs())
    ]
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"), run_name="bench_workloads")
    reference = workloads["ReferenceSweep"].CONFIG
    out += [
        ("reference_w1", ["sweep", "--workers", "1", "--strict"], reference),
        ("reference_w2", ["sweep", "--workers", "2"], reference),
        ("validate", ["validate"], None),
    ]
    out += [(f"workflow_{i}", ["purity", "--strict"], cfg) for i, cfg in enumerate(workflow_configs())]
    out += [("none", ["purity"], NONE), ("wide_base_n", ["purity"], WIDE)]
    return out


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) != 1:
        print("usage: python tests/cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    failed = False
    for name, args, cfg in runs():
        cmd = [sys.executable, "-m", "scatter_entangle.cli", *args]
        if cfg is not None:
            cfg_path = outdir / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            cmd += ["--config", str(cfg_path), "--out", str(outdir / f"{name}.out")]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        (outdir / f"{name}.stdout").write_text(proc.stdout)
        (outdir / f"{name}.exit").write_text(f"{proc.returncode}\n")
        if proc.stderr:
            print(f"{name}: {proc.stderr}", file=sys.stderr, end="")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
