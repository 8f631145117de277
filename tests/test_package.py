"""The package re-exports each module's public names, listed once there."""

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
