"""Regularized (vector) quantile regression via entropic optimal transport
with a mean-independence constraint."""

from .measures import Dataset, RankGrid, center_covariates, load_csv, make_rank_grid
from .solver import (
    Coupling,
    DualVariables,
    SolveReport,
    SolverConfig,
    dual_gradient,
    dual_objective,
    extract_coupling,
    primal_value,
    solve,
)
from .quantiles import (
    QuantileModel,
    ball_conditional_quantile,
    monotonicity_diagnostic,
    quantile_table,
)
from .classical_qr import empirical_quantile, fit_qr_curve

__all__ = [
    "Dataset", "RankGrid", "center_covariates", "load_csv", "make_rank_grid",
    "Coupling", "DualVariables", "SolveReport", "SolverConfig",
    "dual_gradient", "dual_objective", "extract_coupling", "primal_value",
    "solve",
    "QuantileModel", "ball_conditional_quantile", "monotonicity_diagnostic",
    "quantile_table",
    "empirical_quantile", "fit_qr_curve",
]
