"""Seeded manifold inputs for the benchmark workloads.

This module imports nothing from ``hamloop``, so no change to the package
can change the inputs. Every seed keeps each family's m, n and level
regularity; only the level values (and, for ``wide``, the polygon shapes)
vary, so timings stay comparable across seeds. ``DEFAULT_SEED`` reproduces
the canonical families whose report hashes are checked in.

Each input is a ``Case``: the JSON document handed to ``hamloop compute``
plus the facts the exact checks need, derived here independently of the
pipeline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import atan2, gcd, pi

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Case:
    name: str
    doc: dict
    kind: str                  # "blowup", "cpn", "product" or "lattice"
    m: int
    n: int
    vertices: int              # vertex count of the moment polytope
    facts: dict = field(default_factory=dict)


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _doc(name: str, columns: list[list[int]], level, loops=None) -> dict:
    doc = {"name": name, "weights": columns, "tau": [_q(t) for t in level]}
    if loops:
        doc["loops"] = loops
    return doc


def _rows_of(columns: list[list[int]]) -> list[list[int]]:
    """Rows of W (the torus-relation loops) from its columns."""
    return [list(row) for row in zip(*columns)]


# ---------------------------------------------------------------- grid

_GRID_TAUS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
              Fraction(5, 2), Fraction(7, 3), Fraction(4), Fraction(7, 2),
              Fraction(5, 3), Fraction(9, 4), Fraction(3, 2), Fraction(5))
_GRID_FACTORS = (Fraction(1, 3), Fraction(1, 2))
_CPN_LEVELS = (Fraction(1), Fraction(7, 3))
_BLOWUP_COLUMNS = [[1, 0], [1, 0], [1, 1], [0, 1], [1, 0]]


def grid_cases(seed: int) -> list[Case]:
    """24 blow-up points of the projective 3-space plus CP^1..CP^5 at two
    fixed levels; every file also lists its torus-relation loops. The seed
    moves the blow-up points only: the slowest inputs (CP^5) then cost the
    same under every seed."""
    rng = random.Random(seed)
    if seed == DEFAULT_SEED:
        # selftest.standard_grid(), transcribed
        points = [(t, t * f) for t in _GRID_TAUS for f in _GRID_FACTORS]
    else:
        # the default's level sizes, recombined, keep the arithmetic comparable
        factors = _GRID_FACTORS + (Fraction(2, 3),)
        points = []
        for _ in range(24):
            tau = rng.choice(_GRID_TAUS)
            points.append((tau, tau * rng.choice(factors)))
    cases = []
    for i, (tau, mu) in enumerate(points):
        cases.append(Case(f"blowup-{i:02d}",
                          _doc(f"blowup-{i:02d}", _BLOWUP_COLUMNS, (tau, mu),
                               _rows_of(_BLOWUP_COLUMNS)),
                          "blowup", 5, 3, 6, {"tau": tau, "mu": mu}))
    for n in range(1, 6):
        for j, tau in enumerate(_CPN_LEVELS):
            columns = [[1]] * (n + 1)
            cases.append(Case(f"cp{n}-{j}",
                              _doc(f"cp{n}-{j}", columns, (tau,), _rows_of(columns)),
                              "cpn", n + 1, n, n + 1, {"n": n, "tau": tau}))
    return cases


# ------------------------------------------------------------- highdim

_PRODUCTS = ((1, 1, 1), (1, 1, 1, 1),
             (3,), (4,), (5,), (6,), (7,),
             (1, 2), (2, 2), (1, 1, 2), (1, 3))


def highdim_cases(seed: int) -> list[Case]:
    """Products of projective spaces CP^a1 x ... x CP^ak: the 3- and
    4-cubes, CP^3..CP^7 and four mixed products (product-of-simplices
    polytopes of dimension sum(a_i) with sum(a_i + 1) facets)."""
    rng = random.Random(seed)
    cases = []
    for dims in _PRODUCTS:
        if seed == DEFAULT_SEED:
            level = tuple(Fraction(1) for _ in dims)
        else:
            level = tuple(Fraction(rng.randint(1, 3)) for _ in dims)
        columns = []
        factor_of = []
        for i, a in enumerate(dims):
            unit = [1 if t == i else 0 for t in range(len(dims))]
            columns.extend([list(unit) for _ in range(a + 1)])
            factor_of.extend([i] * (a + 1))
        name = "x".join(f"cp{a}" for a in dims)
        vertices = 1
        for a in dims:
            vertices *= a + 1
        cases.append(Case(name, _doc(name, columns, level), "product",
                          len(columns), sum(dims), vertices,
                          {"dims": dims, "level": level, "factor_of": factor_of}))
    return cases


# ---------------------------------------------------------------- wide

_POLYGON_SIZES = (8, 12, 16, 20)
_CUBE_CORNERS = tuple(product((1, -1), repeat=3))
_DEFAULT_CUT_CORNERS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def _cross(a, b) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _polygon_directions(count: int) -> list[tuple[int, int]]:
    """The first `count` pairwise non-parallel primitive directions: (1, 0),
    then (a, b) with b > 0 by max(|a|, b), so (0, 1) comes third."""
    dirs = [(1, 0)]
    size = 1
    while len(dirs) < count:
        ring = [(a, b) for b in range(1, size + 1) for a in range(-size, size + 1)
                if max(abs(a), b) == size and gcd(a, b) == 1]
        dirs.extend(sorted(ring, key=lambda d: (d[1], d[0]))[:count - len(dirs)])
        size += 1
    return dirs


def _lattice_polygon(rng: random.Random, m: int):
    """Centrally symmetric convex lattice polygon with exactly m edges.

    Edge vectors are lattice multiples of the first m/2 primitive
    directions and their negatives, including the axis directions; the seed
    picks which half of the directions get length 2 (the rest length 1), so
    every seed gives polygons of the same size, so (1, 0) and (0, 1) are inward edge normals. Returns the
    inward primitive normals with offsets c (edge k is <u_k, x> + c_k >= 0)
    in counterclockwise order, and the vertices.
    """
    directions = _polygon_directions(m // 2)
    doubled = set(rng.sample(range(len(directions)), len(directions) // 2))
    edges = []
    for i, d in enumerate(directions):
        length = 2 if i in doubled else 1
        edges.append((d[0] * length, d[1] * length))
        edges.append((-d[0] * length, -d[1] * length))
    edges.sort(key=lambda e: atan2(e[1], e[0]) % (2 * pi))   # directions are distinct
    vertices = []
    x = (0, 0)
    normals = []
    for e in edges:
        vertices.append(x)
        g = gcd(e[0], e[1])
        u = (-e[1] // g, e[0] // g)            # inward for counterclockwise order
        normals.append((u, -(u[0] * x[0] + u[1] * x[1])))
        x = (x[0] + e[0], x[1] + e[1])
    return normals, vertices


def _cut_cube(a: int, t: int, corners):
    """The cube [-a, a]^3 with the given corners s cut off by <s, x> <= 3a - t.

    Every cut is a blow-up at a vertex, so the polytope stays Delzant; with
    0 < t < a no two cuts meet, so it stays simple, and each cut trades one
    vertex for three. Its volume is 8a^3 - (number of cuts) * t^3 / 6.
    """
    normals = []
    for i in range(3):
        for sign in (1, -1):
            normals.append((tuple(sign if k == i else 0 for k in range(3)), a))
    # inward normal -s: <-s, x> + 3a - t >= 0
    normals.extend((tuple(-e for e in s), 3 * a - t) for s in corners)
    volume = 8 * Fraction(a) ** 3 - len(corners) * Fraction(t) ** 3 / 6
    return normals, 8 + 2 * len(corners), volume


def _kernel_form_case(name: str, n: int, normals, vertices: int, facts: dict) -> Case:
    """W = [-U' | I_r] with the unit normals first and level W.c, so the
    pipeline's polytope is a lattice-equivalent copy of {<u_k, x> + c_k >= 0}."""
    units = [next(k for k, (u, _) in enumerate(normals)
                  if u == tuple(1 if t == i else 0 for t in range(n)))
             for i in range(n)]
    rest = [k for k in range(len(normals)) if k not in units]
    ordered = [normals[k] for k in units + rest]
    r = len(ordered) - n
    columns = []
    for j, (u, _) in enumerate(ordered):
        if j < n:
            columns.append([-ordered[n + i][0][j] for i in range(r)])
        else:
            columns.append([1 if i == j - n else 0 for i in range(r)])
    offsets = [Fraction(c) for _, c in ordered]
    level = [sum(columns[j][i] * offsets[j] for j in range(len(ordered)))
             for i in range(r)]
    return Case(name, _doc(name, columns, level), "lattice",
                len(ordered), n, vertices, facts)


def _polygon_area(vertices) -> Fraction:
    twice = sum(_cross(vertices[i], vertices[(i + 1) % len(vertices)])
                for i in range(len(vertices)))
    return Fraction(abs(twice), 2)


def wide_cases(seed: int) -> list[Case]:
    """Low dimension, many facets: lattice polygons with m = 8, 12, 16, 20 edges
    and the cube [-2, 2]^3 with four of its corners cut off at depth 1
    (m = 10, n = 3, 16 vertices); the seed picks which polygon edges are
    long and which corners are cut."""
    rng = random.Random(seed)
    cases = []
    for m in _POLYGON_SIZES:
        normals, verts = _lattice_polygon(rng, m)
        cases.append(_kernel_form_case(f"polygon-{m}", 2, normals, m,
                                       {"volume": _polygon_area(verts)}))
    corners = _DEFAULT_CUT_CORNERS
    if seed != DEFAULT_SEED:
        corners = rng.sample(_CUBE_CORNERS, 4)
    normals, vertices, volume = _cut_cube(2, 1, corners)
    cases.append(_kernel_form_case("cut-cube", 3, normals, vertices, {"volume": volume}))
    return cases


WORKLOADS = {
    "grid": grid_cases,
    "highdim": highdim_cases,
    "wide": wide_cases,
}
