"""The package re-exports each module's public names, listed once there, and imports light."""

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
    from scatter_entangle.wavefunction import eval_amplitudes

    for helper in (axis_nodes, check_ladder, eval_amplitudes):
        assert helper.__name__ not in scatter_entangle.__all__


def test_importing_the_package_and_its_cli_leaves_scipy_linalg_unloaded():
    # only the Gauss-Legendre node generator needs it, and it imports it on first use
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
