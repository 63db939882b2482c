"""Moment polytopes of symplectic quotients from integer weight data.

A model is built from an r x m integer matrix W (columns are the weight
vectors) and a rational level vector. The quotient's moment polytope is
realized in kernel-slice coordinates: with Q a saturated basis of
ker(W) ∩ Z^m and s0 a particular solution of W s = level, the k-th moment
coordinate becomes the affine slice function s_k(x) = s0[k] + <row_k(Q), x>
and the polytope is {x : s_k(x) >= 0 for all k}.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from . import fourier_motzkin as fm
from .exact_linalg import (
    IntMatrix,
    determinant,
    integer_kernel,
    primitive,
    rational_rank,
    solve_rational,
)
from .polytope import (
    AffineForm,
    EmptyPolytope,
    Facet,
    Moments,
    Polytope,
    enumerate_vertices,
    facet_moments,
    moments,
)


class NotFullDimensional(Exception):
    """The level vector fails the regular-value requirement."""


class AssumptionsViolated(Exception):
    """The weight matrix fails a standing assumption; report attached."""

    def __init__(self, report: "AssumptionReport"):
        self.report = report
        problems = []
        if not report.rank_ok:
            problems.append(f"weights span rank {report.rank} < {report.required_rank}")
        if not report.halfspace_ok:
            problems.append("no open half space contains every weight vector")
        super().__init__("; ".join(problems) or "assumptions violated")


class AssumptionReport(NamedTuple):
    rank: int
    required_rank: int
    halfspace_ok: bool
    halfspace_witness: Optional[tuple[Fraction, ...]]

    @property
    def rank_ok(self) -> bool:
        return self.rank == self.required_rank

    @property
    def ok(self) -> bool:
        return self.rank_ok and self.halfspace_ok


class SmoothnessClass(enum.Enum):
    DELZANT = "Delzant"
    SIMPLE_ONLY = "SimpleOnly"


class DelzantModel(NamedTuple):
    """Weight data plus its polytope in kernel-slice coordinates.

    scales[k] is the gcd factor relating slice k's gradient to the stored
    primitive facet normal (row_k(Q) = scales[k] * normal); it is None for
    slices whose gradient vanishes (constant slices, which never cut the
    polytope). facets[k] is coordinate k's Facet of the polytope (its index
    there, primitive normal and vertices), or None for a constant slice, as
    is facet_moments[k]. Facets and moments are computed once, here; the
    invariants and the report read them.
    """

    weights: IntMatrix
    level: tuple[Fraction, ...]
    kernel_basis: IntMatrix
    base_solution: tuple[Fraction, ...]
    slices: tuple[AffineForm, ...]
    scales: tuple[Optional[int], ...]
    facets: tuple[Optional[Facet], ...]
    polytope: Polytope
    assumptions: AssumptionReport
    moments: Moments
    facet_moments: tuple[Optional[Moments], ...]

    @property
    def m(self) -> int:
        return self.weights.cols

    @property
    def r(self) -> int:
        return self.weights.rows

    @property
    def dim(self) -> int:
        return self.polytope.dim


def check_assumptions(W: IntMatrix) -> AssumptionReport:
    """Rank and open-half-space checks on the weight columns.

    The half-space test decides, exactly, whether some rational xi has
    <w_j, xi> > 0 for every column w_j (strict feasibility via
    Fourier-Motzkin); a witness is reported when one exists.
    """
    columns = [W.column(j) for j in range(W.cols)]
    rank = rational_rank(columns)
    witness = fm.find_point([fm.make(w, 0, strict=True) for w in columns], W.rows)
    return AssumptionReport(rank, W.rows, witness is not None, witness)


def build_model(W: IntMatrix, level: Sequence,
                kernel_basis: Optional[IntMatrix] = None,
                base_solution: Optional[Sequence] = None) -> DelzantModel:
    """Construct the moment-polytope model for (W, level).

    kernel_basis and base_solution may be injected (any valid choices); the
    resulting polytope then differs by an affine-unimodular change of
    coordinates, and every reported quantity is unchanged.
    """
    report = check_assumptions(W)
    if not report.ok:
        raise AssumptionsViolated(report)
    m, r = W.cols, W.rows
    level_vec = tuple(Fraction(t) for t in level)

    Q = kernel_basis if kernel_basis is not None else integer_kernel(W)
    if Q.rows != m or Q.cols != m - r:
        raise ValueError("kernel basis has the wrong shape")
    if not (W @ Q).is_zero():
        raise ValueError("kernel basis does not annihilate the weight matrix")

    if base_solution is not None:
        s0 = tuple(Fraction(t) for t in base_solution)
        if W.mul_vector(s0) != level_vec:
            raise ValueError("base solution does not solve the level equations")
    else:
        s0 = solve_rational(W, level_vec)

    n = m - r
    slices = tuple(AffineForm(s0[k], tuple(Fraction(e) for e in Q.row(k)))
                   for k in range(m))

    scales: list[Optional[int]] = []
    facet_index: list[Optional[int]] = []
    inequalities = []
    for k in range(m):
        row = Q.row(k)
        if all(e == 0 for e in row):
            if s0[k] < 0:
                raise EmptyPolytope(f"slice {k} is the negative constant {s0[k]}")
            if s0[k] == 0:
                raise NotFullDimensional(f"slice {k} vanishes identically")
            scales.append(None)
            facet_index.append(None)
            continue
        u, g = primitive(row)
        scales.append(g)
        facet_index.append(len(inequalities))
        inequalities.append((u, s0[k] / g))

    # No Fourier-Motzkin test is needed: the half-space check bounds the
    # polytope (Qy >= 0 forces y = 0), and a lower-dimensional one has a
    # vertex on more than n slices, which the vertex check refuses.
    poly = Polytope(n, inequalities, *enumerate_vertices(n, inequalities))
    for vertex, tight in zip(poly.vertices, poly.incidence):
        if len(tight) != n:
            raise NotFullDimensional(f"{len(tight)} slices vanish at the vertex "
                                     f"({', '.join(map(str, vertex))}), not n = {n}")
    facets = tuple(None if idx is None else poly.facet(idx) for idx in facet_index)
    return DelzantModel(W, level_vec, Q, s0, slices, tuple(scales), facets, poly, report,
                        moments(poly),
                        tuple(None if f is None else facet_moments(f) for f in facets))


def smoothness_class(model: DelzantModel) -> SmoothnessClass:
    """Vertex-by-vertex facet-normal test.

    build_model has already refused any vertex that does not lie on exactly
    n slices, so every polytope here is simple and each tight inequality
    defines a facet. Delzant: at every vertex the n primitive normals have
    determinant +-1. SimpleOnly: some determinant differs from +-1.
    """
    poly = model.polytope
    for tight in poly.incidence:
        if abs(determinant([poly.inequalities[k][0] for k in tight])) != 1:
            return SmoothnessClass.SIMPLE_ONLY
    return SmoothnessClass.DELZANT
