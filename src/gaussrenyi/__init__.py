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

from .bounds import (
    LasotaYorkeBounds,
    c_bound,
    eps_max,
    hurwitz_zeta,
    lasota_yorke_bounds,
    theta_bound,
)
from .digits import (
    DigitCell,
    DigitLaw,
    NormalizationError,
    digit_cells,
    digit_law,
    digit_probability,
    gauss_kuzmin,
    gauss_kuzmin_tail,
)
from .funcspace import (
    DEFAULT_DEGREE,
    ChebFn,
    chebyshev_nodes,
    linear_combo,
    norm_sup,
    quadrature_weights,
)
from .maps import MapKind, forward, two_step_derivative
from .perturbation import (
    PerturbationSeries,
    density_derivative,
    mixture_forcing_terms,
    mixture_series,
    residual,
    response_table,
)
from .simulate import (
    DensityHistogram,
    EmpiricalLaw,
    SimConfig,
    brute_force_transfer,
    digit_b,
    empirical_density,
    simulate_digit_freq,
)
from .transfer import (
    DEFAULT_A_MAX,
    ConvergenceError,
    OperatorMatrix,
    TailBoundWarning,
    annealed,
    apply_transfer,
    assemble_operator,
    invariant_density,
    resolvent_solve,
    tail_error_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ChebFn",
    "ConvergenceError",
    "DEFAULT_A_MAX",
    "DEFAULT_DEGREE",
    "DensityHistogram",
    "DigitCell",
    "DigitLaw",
    "EmpiricalLaw",
    "LasotaYorkeBounds",
    "MapKind",
    "NormalizationError",
    "OperatorMatrix",
    "PerturbationSeries",
    "SimConfig",
    "TailBoundWarning",
    "annealed",
    "apply_transfer",
    "assemble_operator",
    "brute_force_transfer",
    "c_bound",
    "chebyshev_nodes",
    "density_derivative",
    "digit_b",
    "digit_cells",
    "digit_law",
    "digit_probability",
    "empirical_density",
    "eps_max",
    "forward",
    "gauss_kuzmin",
    "gauss_kuzmin_tail",
    "hurwitz_zeta",
    "invariant_density",
    "lasota_yorke_bounds",
    "linear_combo",
    "mixture_forcing_terms",
    "mixture_series",
    "norm_sup",
    "quadrature_weights",
    "resolvent_solve",
    "residual",
    "response_table",
    "simulate_digit_freq",
    "tail_error_bound",
    "theta_bound",
    "two_step_derivative",
]
