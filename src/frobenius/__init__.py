"""Symbolic integrability analysis for multidimensional differential systems.

The package decides complete solvability of total differential systems,
completeness of linear homogeneous PDE systems, and closure of Pfaff systems;
computes bracket-closure defects and integral-basis dimensions; verifies
candidate first integrals with certificates; and converts among the three
integrally equivalent representations.
"""

from .analysis import (
    AnalysisReport,
    analyze,
    bracket_closure,
    frobenius_td,
    functional_independence,
    pde_completeness,
    pfaff_closure_check,
    verify_first_integral,
)
from .dsl import parse_system, serialize
from .expr import Expr, Point, Scope, parse_expr
from .exterior import KForm, VectorField, differential
from .linalg import ExprMatrix, generic_rank, invert, sample_points
from .systems import (
    PdeSystem,
    PfaffSystem,
    System,
    TdSystem,
    normal_pde_to_td,
    pde_normalize,
    pfaff_contragredient,
    pfaff_reduce_by_integrals,
    pfaff_to_td,
    td_defect_reduction,
    td_to_pde,
    td_to_pfaff,
)

__all__ = [
    "AnalysisReport",
    "Expr",
    "ExprMatrix",
    "KForm",
    "PdeSystem",
    "PfaffSystem",
    "Point",
    "Scope",
    "System",
    "TdSystem",
    "VectorField",
    "analyze",
    "bracket_closure",
    "differential",
    "frobenius_td",
    "functional_independence",
    "generic_rank",
    "invert",
    "normal_pde_to_td",
    "parse_expr",
    "parse_system",
    "pde_completeness",
    "pde_normalize",
    "pfaff_closure_check",
    "pfaff_contragredient",
    "pfaff_reduce_by_integrals",
    "pfaff_to_td",
    "sample_points",
    "serialize",
    "td_defect_reduction",
    "td_to_pde",
    "td_to_pfaff",
    "verify_first_integral",
]

__version__ = "0.1.0"
