"""Generalized (non-polynomial) spline spaces over T-meshes.

Section spaces mix monomials with a pair of non-polynomial generators; their
Bernstein-like bases assemble into tensor-product splines over a T-mesh, with
the space dimension certified three ways (counting formula, minimal
determining set, brute-force rank) and approximation driven by local Hermite
interpolants.
"""

from .approx import (
    ConvergenceReport,
    HermiteInterpolant,
    HermiteSystem,
    NormEquivalenceReport,
    SplineOracle,
    convergence_study,
    hermite_local,
    l2_error,
    norm_equivalence_check,
    quasi_interpolant,
    sup_error,
)
from .bernstein import BernsteinBasis, base_pair, basis_for, build_basis
from .errors import GentessError, NumericalError, RankAmbiguousError, ValidationError
from .generators import (
    ExpTimesLinear,
    ExpTrig,
    GeneratorPair,
    PolynomialDegenerate,
    PowerPair,
    TwoExponentials,
    generator_from_json,
    generator_kinds,
)
from .gspace import (
    BCoefficientMap,
    DomainPoint,
    GSplineSpace,
    MDSEntry,
    complete_coefficients,
    dimension_formula,
    dimension_terms,
    domain_points,
    dual_basis_net,
    eval_spline,
    eval_spline_derivative,
    eval_spline_grid,
    extract_mds_values,
    propagate_edge,
    propagate_vertex,
)
from .oracle import ConstraintSystem, assemble_constraints, brute_force_dimension
from .sectionspace import (
    SectionSpace,
    check_haar_condition,
    check_wronskian_condition,
    closure_residuals,
    eval_generator,
    make_section_space,
    top_pair_determinant,
)
from .testfunctions import TestFunction, get_test_function, test_function_names
from .tmesh import (
    CompositeEdge,
    MeshDocument,
    MeshStats,
    TMesh,
    document_to_json,
    load_document,
    load_mesh,
    mesh_stats,
    refine,
    tensor_mesh,
)

__version__ = "0.1.0"
