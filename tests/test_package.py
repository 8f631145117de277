"""The package re-exports each module's public names, listed once there, and imports light."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scatter_entangle
from scatter_entangle import amplitudes, analytic, kinematics, purity, wavefunction


def test_the_package_exports_each_modules_public_names():
    names = scatter_entangle.__all__
    assert len(names) == len(set(names))
    modules = (kinematics, amplitudes, wavefunction, purity, analytic)
    assert names == ["__version__", *(n for m in modules for n in m.__all__)]
    for module in modules:
        for name in module.__all__:
            assert getattr(scatter_entangle, name) is getattr(module, name)
    assert isinstance(scatter_entangle.__version__, str)


def test_helpers_outside_the_surface_stay_importable_from_their_modules():
    from scatter_entangle.purity import axis_nodes, check_ladder

    for helper in (axis_nodes, check_ladder):
        assert helper.__name__ not in scatter_entangle.__all__


def test_no_command_imports_scipy(tmp_path):
    # every rule the engine samples and every root it finds comes from numpy;
    # importing scipy would cost a one-shot CLI call more time than its work
    delta = {"masses": {"mu1": 0.2}, "potential": {"kind": "delta", "alpha": 6.25}}
    double = {
        "masses": {"mu1": 0.2},
        "potential": {"kind": "double_delta", "alpha": 6.25, "half_separation": 10.0},
    }
    widths = {"sigma1_over_k": 0.2, "sigma2_over_k": 0.1}
    configs = {
        "amplitudes": dict(double, q_grid={"start": 0.05, "stop": 3.0, "num": 20, "unit": "b"}),
        "purity": dict(delta, state={"k_over_b": 1.0, **widths}),
        "sweep": dict(
            delta, state=widths, k_axis={"start": 0.5, "stop": 1.5, "num": 2, "unit": "b"}
        ),
        "reflectmap": {"mu1_axis": {"values": [0.2, 0.5]}, "c_axis": {"values": [0.5, 2.0]}},
    }
    argvs = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"{command}.out")
        argvs.append([command, "--config", str(path), "--out", out])
    argvs[1].append("--strict")
    argvs[2] += ["--strict", "--workers", "1"]
    argvs.append(["validate"])  # prints its table to stdout, which is captured
    code = (
        "import contextlib, io, sys\n"
        "from scatter_entangle import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.run(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(scatter_entangle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],  # a warning fails the test too
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0, 0] []\n"
