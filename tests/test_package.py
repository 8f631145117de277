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


def test_importing_the_package_and_its_cli_leaves_scipy_linalg_unloaded():
    # only find_resonances needs scipy, and it imports it on first use
    src = str(Path(scatter_entangle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, scatter_entangle.cli; print('scipy.linalg' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_one_shot_purity_and_sweep_import_no_scipy(tmp_path):
    # every rule the engine samples comes from numpy; importing scipy would
    # cost a one-shot CLI call more time than its ladders take
    delta = {"masses": {"mu1": 0.2}, "potential": {"kind": "delta", "alpha": 6.25}}
    widths = {"sigma1_over_k": 0.2, "sigma2_over_k": 0.1}
    configs = {
        "purity": dict(delta, state={"k_over_b": 1.0, **widths}),
        "sweep": dict(
            delta, state=widths, k_axis={"start": 0.5, "stop": 1.5, "num": 2, "unit": "b"}
        ),
    }
    argvs = []
    for command, cfg in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"{command}.out")
        argvs.append([command, "--config", str(path), "--out", out, "--strict"])
    argvs[1] += ["--workers", "1"]
    code = (
        "import sys\n"
        "from scatter_entangle import cli\n"
        f"codes = [cli.run(argv) for argv in {argvs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(scatter_entangle.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0] []\n"
