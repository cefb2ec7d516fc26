"""Banded-splitting stationary solvers with class certification and prediction."""

from .engine import (
    DIVERGENCE_GUARD,
    ConvergenceVerdict,
    IterationConfig,
    PowerEstimate,
    SolveReport,
    predict,
    solve,
    spectral_radius,
)
from .matrices import (
    DEFAULT_DENSE_LIMIT,
    BandedSplitting,
    ClassificationReport,
    SquareMatrix,
    classify,
    comparison_matrix,
    extract_splitting,
    is_h_matrix,
    is_l_matrix,
    is_m_matrix,
    is_sdd,
    is_spd,
    is_z_matrix,
)
from .mmio import read_matrix, write_matrix, write_vector
from .pde import LAYOUT_BENCH, LAYOUT_SQUARE, G_BUILTINS, PdeProblem, assemble
from .solvers import (
    FactorizationError,
    Method,
    StepOperator,
    build_step,
    iteration_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BandedSplitting",
    "ClassificationReport",
    "ConvergenceVerdict",
    "DEFAULT_DENSE_LIMIT",
    "DIVERGENCE_GUARD",
    "FactorizationError",
    "G_BUILTINS",
    "IterationConfig",
    "LAYOUT_BENCH",
    "LAYOUT_SQUARE",
    "Method",
    "PdeProblem",
    "PowerEstimate",
    "SolveReport",
    "SquareMatrix",
    "StepOperator",
    "assemble",
    "build_step",
    "classify",
    "comparison_matrix",
    "extract_splitting",
    "is_h_matrix",
    "is_l_matrix",
    "is_m_matrix",
    "is_sdd",
    "is_spd",
    "is_z_matrix",
    "iteration_matrix",
    "predict",
    "read_matrix",
    "solve",
    "spectral_radius",
    "write_matrix",
    "write_vector",
]
