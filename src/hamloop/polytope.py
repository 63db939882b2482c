"""Exact polyhedral geometry for rational H-polytopes.

An inequality (u, c) denotes the half space c + <u, x> >= 0 with u a
primitive integer (inward) normal. Vertices are enumerated by brute force
over n-element inequality subsets, which is the intended contract at desk
scale (m up to ~25).

Facets carry lattice-normalized surface measure: Euclidean measure divided
by the Euclidean length of the primitive normal u. Per facet simplex with
edge matrix E this is |det [E | u]| / ((n-1)! * <u, u>), an exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Iterable, NamedTuple, Optional, Sequence

from . import fourier_motzkin as fm
from .exact_linalg import (
    IntMatrix,
    determinant,
    integer_kernel,
    primitive,
    rational_rank,
    solve_rational,
    solve_square,
)


class EmptyPolytope(Exception):
    """The inequality system has no solution."""


class UnboundedPolytope(Exception):
    """The inequality system admits a recession ray."""


class DegenerateInput(Exception):
    """The input is not full-dimensional where it must be."""


Point = tuple[Fraction, ...]
Inequality = tuple[tuple[int, ...], Fraction]


def _dot(u: Sequence, x: Sequence) -> Fraction:
    return sum(Fraction(a) * b for a, b in zip(u, x))


class AffineForm(NamedTuple):
    """Affine function x -> constant + <gradient, x> with exact coefficients."""

    constant: Fraction
    gradient: tuple[Fraction, ...]

    def __call__(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != len(self.gradient):
            raise ValueError("point dimension does not match the form")
        return self.constant + sum(g * xi for g, xi in zip(self.gradient, x))

    def __add__(self, other: "AffineForm") -> "AffineForm":
        return AffineForm(self.constant + other.constant,
                          tuple(a + b for a, b in zip(self.gradient, other.gradient)))

    def scaled(self, factor) -> "AffineForm":
        f = Fraction(factor)
        return AffineForm(self.constant * f, tuple(g * f for g in self.gradient))

    @classmethod
    def make(cls, constant, gradient: Sequence) -> "AffineForm":
        return cls(Fraction(constant), tuple(Fraction(g) for g in gradient))


class Simplex:
    """Affinely independent vertex tuple; rejects flat input."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[Point, ...]) -> None:
        if not vertices:
            raise DegenerateInput("empty simplex")
        if _affine_dim(vertices) != len(vertices) - 1:
            raise DegenerateInput("simplex vertices are affinely dependent")
        self.vertices = vertices

    def __repr__(self) -> str:
        return f"Simplex(vertices={self.vertices!r})"

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1


def _affine_dim(points: Sequence[Point]) -> int:
    if not points:
        return -1
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    return rational_rank(diffs) if diffs else 0


def simplex_volume(s: Simplex) -> Fraction:
    """Volume |det E| / n! of a full-dimensional simplex."""
    n = s.dimension
    if n == 0:
        return Fraction(1)
    base = s.vertices[0]
    rows = [tuple(a - b for a, b in zip(p, base)) for p in s.vertices[1:]]
    if len(rows[0]) != n:
        raise DegenerateInput("simplex is not full-dimensional in its ambient space")
    return abs(determinant(rows)) / factorial(n)


class Facet(NamedTuple):
    """One inequality's tight face, with its primitive normal retained."""

    polytope: Polytope
    index: int
    normal: tuple[int, ...]
    normal_norm_sq: int
    vertex_ids: tuple[int, ...]
    dimension: int

    @property
    def is_empty(self) -> bool:
        return not self.vertex_ids

    @property
    def full(self) -> bool:
        return self.dimension == self.polytope.dim - 1


class Polytope:
    """Bounded rational polytope: inequalities, vertices and incidence.

    Vertices are stored sorted lexicographically; incidence[i] is the set of
    all inequality indices tight at vertex i.
    """

    def __init__(self, dim: int, inequalities: Sequence[Inequality],
                 vertices: Sequence[Point], incidence: Sequence[frozenset]):
        self.dim = dim
        self.inequalities = tuple((tuple(u), Fraction(c)) for u, c in inequalities)
        self.vertices = tuple(tuple(x) for x in vertices)
        self.incidence = tuple(frozenset(s) for s in incidence)

    @classmethod
    def from_inequalities(cls, dim: int,
                          inequalities: Iterable[tuple[Sequence[int], object]]) -> "Polytope":
        """Polytope of any inequality system, with primitive normals.

        Fourier-Motzkin decides boundedness (else UnboundedPolytope, or
        EmptyPolytope when the system is also infeasible)."""
        normalized: list[Inequality] = []
        for raw_u, raw_c in inequalities:
            u, g = primitive(raw_u)
            normalized.append((u, Fraction(raw_c) / g))
        ray = _recession_ray(dim, [u for u, _ in normalized])
        if ray is not None:
            if fm.feasible([fm.make(u, -c) for u, c in normalized], dim):
                raise UnboundedPolytope(f"recession ray {ray} satisfies every inequality")
            raise EmptyPolytope("inequalities are infeasible")
        return cls(dim, normalized, *enumerate_vertices(dim, normalized))

    def facet(self, k: int) -> Facet:
        u, _ = self.inequalities[k]
        ids = tuple(i for i in range(len(self.vertices)) if k in self.incidence[i])
        d = _affine_dim([self.vertices[i] for i in ids]) if ids else -1
        return Facet(self, k, u, sum(e * e for e in u), ids, d)


def enumerate_vertices(dim: int, inequalities: Sequence[Inequality]):
    """Vertices and full incidence of the bounded polytope {x : c_k + <u_k, x> >= 0}.

    Brute force: every dim-subset of inequalities with invertible normal
    matrix is solved and the solution kept when it satisfies all
    inequalities. Raises EmptyPolytope when no vertex is found. Boundedness
    is the caller's to ensure: Polytope.from_inequalities checks it by
    Fourier-Motzkin, and build_model's open half-space check implies it.
    """
    ineqs = list(inequalities)
    if dim == 0:
        if all(c >= 0 for _, c in ineqs):
            tight = frozenset(k for k, (_, c) in enumerate(ineqs) if c == 0)
            return ((),), (tight,)
        raise EmptyPolytope("constant inequality violated")
    found: dict[Point, None] = {}
    for subset in combinations(range(len(ineqs)), dim):
        rows = [ineqs[k][0] for k in subset]
        rhs = [-ineqs[k][1] for k in subset]
        x = solve_square(rows, rhs)
        if x is None:
            continue
        if all(c + _dot(u, x) >= 0 for u, c in ineqs):
            found[x] = None
    if not found:
        raise EmptyPolytope("no inequality subset yields a feasible vertex")
    vertices = tuple(sorted(found))
    incidence = tuple(
        frozenset(k for k, (u, c) in enumerate(ineqs) if c + _dot(u, v) == 0)
        for v in vertices)
    return vertices, incidence


def interior_point(dim: int, ineqs: Sequence[Inequality]) -> Optional[Point]:
    """A point with every inequality strict, or None (not full-dimensional)."""
    return fm.find_point([fm.make(u, -c, strict=True) for u, c in ineqs], dim)


def _recession_ray(dim: int, normals: Sequence[tuple[int, ...]]) -> Optional[tuple]:
    """A nonzero y with <u, y> >= 0 for every normal u, or None."""
    if dim == 0:
        return None
    if not normals:
        return (Fraction(1),) + (Fraction(0),) * (dim - 1)
    if rational_rank(normals) < dim:
        ker = integer_kernel(IntMatrix.from_rows(normals))
        return ker.column(0)
    # pointed cone: scan each coordinate fixed to +-1 by Fourier-Motzkin
    for i in range(dim):
        for sigma in (1, -1):
            cons = []
            for u in normals:
                coeffs = u[:i] + u[i + 1:]
                cons.append(fm.make(coeffs, -u[i] * sigma))
            partial = fm.find_point(cons, dim - 1)
            if partial is not None:
                return partial[:i] + (Fraction(sigma),) + partial[i:]
    return None


def _face_cells(poly: Polytope, ids: tuple[int, ...], apex_rule: str) -> list[tuple[int, ...]]:
    """Triangulate the face spanned by the given vertex ids, as id tuples.

    Recursive cone construction: pick the lexicographic extreme vertex of
    the face, triangulate every subface not containing it, cone to it.
    """
    pts = [poly.vertices[i] for i in ids]
    d = _affine_dim(pts)
    if d == 0:
        return [(ids[0],)]
    if apex_rule == "lexmin":
        apex = min(ids, key=lambda i: poly.vertices[i])
    elif apex_rule == "lexmax":
        apex = max(ids, key=lambda i: poly.vertices[i])
    else:
        raise ValueError(f"unknown apex rule {apex_rule!r}")
    tight_all = frozenset.intersection(*(poly.incidence[i] for i in ids))
    seen: set[frozenset] = set()
    cells: list[tuple[int, ...]] = []
    for k in range(len(poly.inequalities)):
        if k in tight_all:
            continue
        sub = tuple(i for i in ids if k in poly.incidence[i])
        if not sub or apex in sub:
            continue
        key = frozenset(sub)
        if key in seen:
            continue
        seen.add(key)
        if _affine_dim([poly.vertices[i] for i in sub]) != d - 1:
            continue
        for cell in _face_cells(poly, sub, apex_rule):
            cells.append(cell + (apex,))
    return cells


def triangulate(poly: Polytope, apex_rule: str = "lexmin") -> list[Simplex]:
    """Simplicial cells with disjoint interiors covering the polytope."""
    if _affine_dim(poly.vertices) != poly.dim:
        raise DegenerateInput("polytope is not full-dimensional")
    if poly.dim == 0:
        return [Simplex((poly.vertices[0],))]
    ids = tuple(range(len(poly.vertices)))
    return [Simplex(tuple(poly.vertices[i] for i in cell))
            for cell in _face_cells(poly, ids, apex_rule)]


class Moments(NamedTuple):
    """Mass (integral of 1) and first moment (integral of x) of a region."""

    mass: Fraction
    first: tuple[Fraction, ...]

    def integrate(self, form: AffineForm) -> Fraction:
        if len(form.gradient) != len(self.first):
            raise ValueError("form dimension does not match the region")
        return form.constant * self.mass + _dot(form.gradient, self.first)


def _sum_cells(dim: int, cells: Iterable[tuple[Fraction, Sequence[Point]]]) -> Moments:
    """Moments of (measure, vertices) simplex cells, by the vertex-mean rule."""
    mass = Fraction(0)
    first = [Fraction(0)] * dim
    for measure, points in cells:
        mass += measure
        weight = measure / len(points)
        for p in points:
            for i, x in enumerate(p):
                first[i] += weight * x
    return Moments(mass, tuple(first))


def moments(poly: Polytope, apex_rule: str = "lexmin") -> Moments:
    """Lebesgue moments of the polytope over one triangulation."""
    return _sum_cells(poly.dim, ((simplex_volume(s), s.vertices)
                                 for s in triangulate(poly, apex_rule)))


def _facet_cell_measure(facet: Facet, cell: tuple[int, ...]) -> Fraction:
    """Lattice measure |det [E | u]| / ((n-1)! <u, u>) of one facet simplex."""
    poly = facet.polytope
    n = poly.dim
    pts = [poly.vertices[i] for i in cell]
    rows = [tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]
    rows.append(facet.normal)
    return abs(determinant(rows)) / (factorial(n - 1) * facet.normal_norm_sq)


def facet_moments(facet: Facet) -> Moments:
    """Lattice-measure moments of a facet; zero for empty or degenerate ones."""
    poly = facet.polytope
    cells = _face_cells(poly, facet.vertex_ids, "lexmin") if facet.full else ()
    return _sum_cells(poly.dim, ((_facet_cell_measure(facet, cell),
                                  [poly.vertices[i] for i in cell]) for cell in cells))


def volume(poly: Polytope, apex_rule: str = "lexmin") -> Fraction:
    """Lebesgue volume as the sum of |det E| / n! over a triangulation."""
    return moments(poly, apex_rule).mass


def integrate_affine(poly: Polytope, form: AffineForm,
                     apex_rule: str = "lexmin") -> Fraction:
    """Integral of an affine function; exact via the vertex-mean rule."""
    return moments(poly, apex_rule).integrate(form)


def facet_lattice_volume(facet: Facet) -> Fraction:
    """Lattice-normalized volume of a facet; 0 for empty or degenerate ones."""
    return facet_moments(facet).mass


def integrate_affine_facet(facet: Facet, form: AffineForm) -> Fraction:
    """Integral of an affine function over a facet in lattice measure."""
    return facet_moments(facet).integrate(form)


def _dedup(ineqs: Sequence[Inequality]) -> list[Inequality]:
    seen: dict[tuple, Inequality] = {}
    for u, c in ineqs:
        seen.setdefault((tuple(u), Fraction(c)), (tuple(u), Fraction(c)))
    return list(seen.values())


def lasserre_volume(poly: Polytope) -> Fraction:
    """Volume by the divergence recursion vol = (1/n) sum_k c_k vol(F_k).

    Independent of the triangulation route: facet volumes are obtained by
    restricting the inequality system to the facet hyperplane through a
    saturated lattice basis of its direction space, recursing on dimension
    down to segment lengths. Coincident inequalities are deduplicated, since
    the sum runs over geometric facets.
    """
    if poly.dim == 0:
        return Fraction(1)
    return _lasserre(poly.dim, _dedup(poly.inequalities))


def _lasserre(dim: int, ineqs: list[Inequality]) -> Fraction:
    if dim == 1:
        lo = hi = None
        for (u,), c in ineqs:
            bound = -Fraction(c) / u
            if u > 0:
                lo = bound if lo is None else max(lo, bound)
            else:
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise UnboundedPolytope("unbounded slice in volume recursion")
        return hi - lo if hi > lo else Fraction(0)
    total = Fraction(0)
    for k, (u, c) in enumerate(ineqs):
        if c == 0:
            continue
        total += c * _restricted_facet_volume(dim, ineqs, k)
    return total / dim


def _restricted_facet_volume(dim: int, ineqs: list[Inequality], k: int) -> Fraction:
    u, c = ineqs[k]
    hyperplane = IntMatrix.from_rows([u])
    basis = integer_kernel(hyperplane)
    point = solve_rational(hyperplane, (-c,))
    sub: list[Inequality] = []
    for i, (v, d) in enumerate(ineqs):
        if i == k:
            continue
        const = d + _dot(v, point)
        w = tuple(sum(basis.entry(t, j) * v[t] for t in range(dim))
                  for j in range(dim - 1))
        if all(e == 0 for e in w):
            if const < 0:
                return Fraction(0)
            continue
        wp, g = primitive(w)
        sub.append((wp, const / g))
    return _lasserre(dim - 1, _dedup(sub))
