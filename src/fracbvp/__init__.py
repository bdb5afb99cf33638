"""Solver and certificate checker for Caputo fractional boundary value
problems with ratio boundary conditions u(0) = xi u(1),
D^beta u(0) = xi D^beta u(1) on [0, 1]."""

from .certify import (
    Certificate,
    GrowthSpec,
    certify,
    contraction_constant,
    existence_radius,
    lipschitz_estimate,
    theta,
)
from .errors import (
    ConfigError,
    DivergenceError,
    DomainError,
    EvaluationError,
    FracbvpError,
    ParseError,
    UnknownIdentifierError,
)
from .expr import evaluate, parse, to_source
from .fracops import (
    Grid,
    GridFunction,
    KernelOperator,
    gamma,
)
from .greens import (
    ProblemParams,
    companion_weight_matrix,
    green_branch_value,
    green_weight_matrix,
    gstar,
    gstar_coarse_bound,
    kernel_operators,
)
from .solver import (
    IterationReport,
    ProblemSpec,
    ResidualReport,
    SolutionPair,
    apply_T,
    linear_solve,
    pair_distance,
    picard_solve,
    residual,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ConfigError",
    "DivergenceError",
    "DomainError",
    "EvaluationError",
    "FracbvpError",
    "Grid",
    "GridFunction",
    "GrowthSpec",
    "IterationReport",
    "KernelOperator",
    "ParseError",
    "ProblemParams",
    "ProblemSpec",
    "ResidualReport",
    "SolutionPair",
    "UnknownIdentifierError",
    "apply_T",
    "certify",
    "companion_weight_matrix",
    "contraction_constant",
    "evaluate",
    "existence_radius",
    "gamma",
    "green_branch_value",
    "green_weight_matrix",
    "gstar",
    "gstar_coarse_bound",
    "kernel_operators",
    "linear_solve",
    "lipschitz_estimate",
    "pair_distance",
    "parse",
    "picard_solve",
    "residual",
    "theta",
    "to_source",
]
