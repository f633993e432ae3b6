"""Finite-difference operators, consistency analysis and error metrics on
uniform and nonuniform meshes."""

from .analysis import (
    ConsistencyReport,
    OrderEstimate,
    consistency_coefficient,
    consistency_report_at,
    empirical_order,
    expansion_prediction,
    first_diff_error_bound,
    geometric_consistency,
)
from .diffops import (
    ALL_SECOND_SPECS,
    D2_CORRECTED,
    FirstDiffKind,
    GridFunction,
    SecondDiffSpec,
    UnmarchableOperatorError,
    WindowError,
    apply_operator,
    first_difference,
    second_difference,
)
from .functions import (
    AnalyticFunction,
    make_oscillator_solution,
    make_polynomial,
    make_sinusoid,
    sample,
)
from .ivp import (
    BACKWARD_FORWARD,
    IvpProblem,
    IvpSolution,
    MarchDivergedError,
    MarchUnstableError,
    solve,
)
from .mesh import (
    Mesh,
    MeshError,
    build_equiarclength,
    build_geometric,
    build_uniform,
    refine_insert,
    smoothness_ratios,
    write_mesh_csv,
)
from .metrics import SldSeries, classify, scaled_local_difference

__version__ = "0.1.0"

__all__ = [
    "ALL_SECOND_SPECS",
    "AnalyticFunction",
    "BACKWARD_FORWARD",
    "ConsistencyReport",
    "D2_CORRECTED",
    "FirstDiffKind",
    "GridFunction",
    "IvpProblem",
    "IvpSolution",
    "MarchDivergedError",
    "MarchUnstableError",
    "Mesh",
    "MeshError",
    "OrderEstimate",
    "SecondDiffSpec",
    "SldSeries",
    "UnmarchableOperatorError",
    "WindowError",
    "apply_operator",
    "build_equiarclength",
    "build_geometric",
    "build_uniform",
    "classify",
    "consistency_coefficient",
    "consistency_report_at",
    "empirical_order",
    "expansion_prediction",
    "first_diff_error_bound",
    "first_difference",
    "geometric_consistency",
    "make_oscillator_solution",
    "make_polynomial",
    "make_sinusoid",
    "refine_insert",
    "sample",
    "scaled_local_difference",
    "second_difference",
    "smoothness_ratios",
    "solve",
    "write_mesh_csv",
]
