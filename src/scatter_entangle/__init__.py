"""Interparticle entanglement from two-body scattering in one dimension.

Two distinguishable particles approach each other in a product of Gaussian
wave packets and scatter off a potential in their relative coordinate (hard
core, Dirac delta, or double Dirac delta). This package computes how
entangled the particles come out: the purity of the one-particle reduced
density matrix, evaluated by Gauss-Legendre quadrature and the Gram matrix
of the samples (its eigenvalues are the Schmidt weights), together with
closed forms and constant-amplitude approximations to compare against.
"""

from . import amplitudes, analytic, kinematics, purity, wavefunction
from .kinematics import *
from .amplitudes import *
from .wavefunction import *
from .purity import *
from .analytic import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *kinematics.__all__,
    *amplitudes.__all__,
    *wavefunction.__all__,
    *purity.__all__,
    *analytic.__all__,
]
