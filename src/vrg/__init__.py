"""Exact analyzer for finite graded polynomial extensions."""

from .analyzer import (
    AnalysisReport,
    RamificationDatum,
    Witness,
    analyze,
    verify_report,
)
from .errors import VrgError
from .extension import ExtensionSpec, degree, validate
from .factor import Factorization, gcd, lcm, squarefree, valuation
from .fiber import FiberSample, branch_audit, fiber_count, fiber_points
from .groebner import GroebnerBasis, normal_form
from .ideals import check_finite, contract_prime, subalgebra_membership, tag_table
from .poly import (
    Poly,
    VarTable,
    canonical,
    canonicalize,
    format_poly,
    jacobian,
    parse,
    weighted_degree,
)
from .reportio import load_report, load_spec, report_from_dict, report_to_dict

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ExtensionSpec",
    "Factorization",
    "FiberSample",
    "GroebnerBasis",
    "Poly",
    "RamificationDatum",
    "VarTable",
    "VrgError",
    "Witness",
    "analyze",
    "branch_audit",
    "canonical",
    "canonicalize",
    "check_finite",
    "contract_prime",
    "degree",
    "fiber_count",
    "fiber_points",
    "format_poly",
    "gcd",
    "jacobian",
    "lcm",
    "load_report",
    "load_spec",
    "normal_form",
    "parse",
    "report_from_dict",
    "report_to_dict",
    "squarefree",
    "subalgebra_membership",
    "tag_table",
    "valuation",
    "validate",
    "verify_report",
    "weighted_degree",
]
