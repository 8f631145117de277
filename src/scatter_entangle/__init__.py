"""Interparticle entanglement from two-body scattering in one dimension.

Two distinguishable particles approach each other in a product of Gaussian
wave packets and scatter off a potential in their relative coordinate (hard
core, Dirac delta, or double Dirac delta). This package computes how
entangled the particles come out: the purity of the one-particle reduced
density matrix, evaluated by Gauss-Legendre quadrature and singular-value
decomposition, together with closed forms and constant-amplitude
approximations to compare against.
"""

from .kinematics import (
    JacobiMomentum,
    MassPartition,
    PairMomentum,
    jacobi_to_pair,
    pair_to_jacobi,
    reflect_momenta,
)
from .amplitudes import (
    AmplitudeModel,
    AmplitudePair,
    PotentialKind,
    delta_amplitudes,
    double_delta_amplitudes,
    find_resonances,
    hardcore_amplitudes,
    unitarity_residual,
)
from .wavefunction import (
    GaussianInState,
    IncomingnessWarning,
    Mode,
    ModeWavefunction,
    eval_in,
    eval_in_jacobi,
    eval_mode,
    eval_reflected_in,
)
from .purity import (
    AxisWindow,
    GridSpec,
    PurityReport,
    WeightedAmplitudeMatrix,
    ZeroWavefunctionError,
    discretize,
    gram_purity,
    jacobi_grid,
    joint_grid,
    mode_grid,
    purity_adaptive,
    purity_from_matrix,
    purity_out,
    purity_pq_adaptive,
)
from .analytic import (
    ApproximationInput,
    approx_C,
    approx_CR,
    reflected_gaussian_purity,
    reflected_gaussian_purity_mu_c,
    schulman_satisfied,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kinematics
    "MassPartition",
    "PairMomentum",
    "JacobiMomentum",
    "pair_to_jacobi",
    "jacobi_to_pair",
    "reflect_momenta",
    # amplitudes
    "PotentialKind",
    "AmplitudePair",
    "AmplitudeModel",
    "hardcore_amplitudes",
    "delta_amplitudes",
    "double_delta_amplitudes",
    "find_resonances",
    "unitarity_residual",
    # wavefunction
    "GaussianInState",
    "IncomingnessWarning",
    "Mode",
    "ModeWavefunction",
    "eval_in",
    "eval_reflected_in",
    "eval_mode",
    "eval_in_jacobi",
    # purity
    "AxisWindow",
    "GridSpec",
    "WeightedAmplitudeMatrix",
    "PurityReport",
    "ZeroWavefunctionError",
    "discretize",
    "purity_from_matrix",
    "gram_purity",
    "purity_adaptive",
    "purity_out",
    "purity_pq_adaptive",
    "mode_grid",
    "joint_grid",
    "jacobi_grid",
    # analytic
    "reflected_gaussian_purity",
    "reflected_gaussian_purity_mu_c",
    "schulman_satisfied",
    "approx_C",
    "approx_CR",
    "ApproximationInput",
]
