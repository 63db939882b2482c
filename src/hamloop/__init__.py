"""Exact characteristic numbers of coordinate-rotation Hamiltonian loops on
toric symplectic quotients, computed through moment-polytope integrals in
exact rational arithmetic."""

from .delzant import (
    AssumptionReport,
    AssumptionsViolated,
    DelzantModel,
    NotFullDimensional,
    SmoothnessClass,
    build_model,
    check_assumptions,
    smoothness_class,
)
from .exact_linalg import (
    IntMatrix,
    NoSolution,
    NotSquare,
    ZeroVector,
    determinant,
    integer_kernel,
    primitive,
    solve_rational,
)
from .invariant import (
    InvariantReport,
    LoopSpec,
    Verdict,
    invariant_coordinate,
    invariant_loop,
    verdict,
)
from .oracles import (
    BadParams,
    BlowupParams,
    InternalInconsistency,
    blowup_model,
    cpn_invariant,
    cpn_kappa,
    cpn_model,
    facet_values_closed_form,
    invariant_closed_form,
    kappa_closed_form,
)
from .polytope import (
    AffineForm,
    DegenerateInput,
    EmptyPolytope,
    Facet,
    Polytope,
    Simplex,
    UnboundedPolytope,
    enumerate_vertices,
    facet_lattice_volume,
    integrate_affine,
    integrate_affine_facet,
    lasserre_volume,
    simplex_volume,
    triangulate,
    volume,
)

__version__ = "0.1.0"

__all__ = [
    "AffineForm", "AssumptionReport", "AssumptionsViolated", "BadParams",
    "BlowupParams", "DegenerateInput", "DelzantModel", "EmptyPolytope",
    "Facet", "IntMatrix", "InternalInconsistency", "InvariantReport",
    "LoopSpec", "NoSolution", "NotFullDimensional", "NotSquare", "Polytope",
    "Simplex", "SmoothnessClass", "UnboundedPolytope", "Verdict",
    "ZeroVector", "blowup_model", "build_model", "check_assumptions",
    "cpn_invariant", "cpn_kappa", "cpn_model", "determinant",
    "enumerate_vertices", "facet_lattice_volume",
    "facet_values_closed_form", "integer_kernel", "integrate_affine",
    "integrate_affine_facet", "invariant_closed_form", "invariant_coordinate",
    "invariant_loop", "kappa_closed_form",
    "lasserre_volume", "primitive", "simplex_volume",
    "smoothness_class", "solve_rational", "triangulate", "verdict", "volume",
]
