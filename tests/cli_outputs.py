"""Write the outputs of a fixed set of CLI runs, for byte-identity checks.

    python tests/cli_outputs.py OUTDIR

Each run gets three files in OUTDIR, named after it: ``NAME.out`` (the
``--out`` file; ``validate`` takes none and has no such file),
``NAME.stdout`` and ``NAME.exit`` (the exit code). Every run is a fresh
``python -m scatter_entangle.cli`` that imports this checkout's ``src``,
so running the script in two checkouts and comparing the directories with
``diff -r`` shows any byte a change moves. The runs:

- every JSON config in README.md under a command's heading
  (``readme_configs``, which tests/test_readme.py also checks against each
  command's schema);
- the benchmark's reference sweep (``ReferenceSweep.CONFIG`` of
  bench/workloads.py) with ``--workers 1 --strict`` (``reference_w1``) and
  ``--workers 2`` (``reference_w2``), whose CSVs the CI workflow compares
  with ``cmp``;
- ``validate``;
- ``purity --strict`` on each of ``STRICT``: packets with moved positions
  (``workflow_0``), the light corners whose windows widen most
  (``workflow_1`` to ``workflow_4``) and a one-level ladder
  (``workflow_5``);
- a ``none`` potential, and a double delta on wide grids (``base_n``
  [64, 128]).

Exits 1, after writing every output, if any run exited nonzero or wrote to
stderr: a failed self check, a warning under ``PYTHONWARNINGS=error``, a
traceback or a ``--strict`` message. Its 15 runs took 6.5 s on a 2-core x86-64
machine.
"""

from __future__ import annotations

import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

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
# run as purity --strict, which exits 3 if a report is unconverged
STRICT = [
    # a1 != a2 gives the branch overlap its phase cos(2 q (a2 - a1));
    # the run must exit 0 with no warning from the overlap integral
    {"masses": {"mu1": 0.2}, "potential": {"kind": "delta", "alpha": 6.25},
     "state": {"k": 1.0, "sigma1_over_k": 0.3, "sigma2_over_k": 0.1, "a1": -1.0, "a2": 2.0}},
    # mode_grid widens one window by at most 1 % to make the grid's steps
    # in q a ratio of small integers; these light_points corners widen the
    # most, their reflected windows by 0.93 % (to 23/9 and 9/23)
    {"masses": {"mu1": 0.1}, "potential": {"kind": "hard_core"},
     "state": {"k": 1.0, "sigma1_over_k": 0.05, "sigma2_over_k": 0.3}},
    {"masses": {"mu1": 0.9}, "potential": {"kind": "hard_core"},
     "state": {"k": 1.0, "sigma1_over_k": 0.3, "sigma2_over_k": 0.05}},
    {"masses": {"mu1": 0.1}, "potential": {"kind": "delta", "alpha": 1.0},
     "state": {"k_over_b": 0.3, "sigma1_over_k": 0.05, "sigma2_over_k": 0.3}},
    {"masses": {"mu1": 0.9}, "potential": {"kind": "delta", "alpha": 1.0},
     "state": {"k_over_b": 3.0, "sigma1_over_k": 0.3, "sigma2_over_k": 0.05}},
    # with n_cap = base_n the ladder has one level, which its
    # every-other-node subgrid judges: a light hard-core packet is
    # resolved there, so purity --strict must exit 0 on one 64^2 level
    {"masses": {"mu1": 0.2}, "potential": {"kind": "hard_core"},
     "state": {"k": 1.0, "sigma1_over_k": 0.05, "sigma2_over_k": 0.2},
     "engine": {"base_n": 64, "n_cap": 64}},
]


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
    out += [(f"workflow_{i}", ["purity", "--strict"], cfg) for i, cfg in enumerate(STRICT)]
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
        if proc.returncode or proc.stderr:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr, end="")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
