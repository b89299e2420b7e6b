"""Stationary densities and digit laws of random Gauss-Renyi continued fractions.

The package computes the stationary density of the random dynamical
system that applies the Gauss map with probability 1 - eps and the
Renyi (backward) map with probability eps, as a Taylor expansion of
any order in eps around the classical Gauss measure.  From the density
expansion it derives the limiting distribution of the digits of the
associated random semi-regular continued fractions, together with the
contraction constants that delimit the admissible range of eps, and
Monte Carlo plus brute-force oracles for independent validation.
"""

from .bounds import *
from .digits import *
from .funcspace import *
from .maps import *
from .perturbation import *
from .simulate import *
from .transfer import *

__version__ = "0.1.0"

# each module's __all__ is its public surface and the package re-exports them
# all; importing a submodule binds it here, so its list can be read off it
__all__ = sorted(
    name
    for module in (bounds, digits, funcspace, maps, perturbation, simulate, transfer)
    for name in module.__all__
)
