"""Primal-dual weak Galerkin finite element solver for second-order
elliptic Cauchy problems on triangular meshes of the unit square."""

from .cases import CaseSpec, CaseValidationError, case_ids, catalog, get_case, validate_case
from .cli import ConvergenceReport, emit, run_study
from .fespace import (
    DofMap,
    QuadratureRule,
    WeakFunction,
    l2_project_edge,
    l2_project_element,
    l2_project_vector,
    l2_project_weak,
    quadrature_for_degree,
)
from .mesh import (
    BoundaryConfig,
    Mesh,
    build_uniform_mesh,
    classify_boundary,
    dump_mesh,
)
from .norms import (
    ErrorReport,
    broken_h1,
    error_fields,
    error_report,
    interior_l2_norm,
    residual_norm_multiplier,
    residual_norm_primal,
    stabilizer_seminorm,
    strong_residual_norms,
)
from .system import (
    SaddleSystem,
    SingularSystemError,
    assemble,
    condition_estimate,
    matrix_to_coordinate_text,
    solve,
)
from .weakops import IDENTITY, Diffusion, LocalOperators

__version__ = "0.1.0"

__all__ = [
    "BoundaryConfig",
    "CaseSpec",
    "CaseValidationError",
    "ConvergenceReport",
    "Diffusion",
    "DofMap",
    "ErrorReport",
    "IDENTITY",
    "LocalOperators",
    "Mesh",
    "QuadratureRule",
    "SaddleSystem",
    "SingularSystemError",
    "WeakFunction",
    "assemble",
    "broken_h1",
    "build_uniform_mesh",
    "case_ids",
    "catalog",
    "classify_boundary",
    "condition_estimate",
    "dump_mesh",
    "emit",
    "error_fields",
    "error_report",
    "get_case",
    "interior_l2_norm",
    "l2_project_edge",
    "l2_project_element",
    "l2_project_vector",
    "l2_project_weak",
    "matrix_to_coordinate_text",
    "quadrature_for_degree",
    "residual_norm_multiplier",
    "residual_norm_primal",
    "run_study",
    "solve",
    "stabilizer_seminorm",
    "strong_residual_norms",
    "validate_case",
]
