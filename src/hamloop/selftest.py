"""End-to-end self checks: pipeline versus closed forms, dual volume routes,
choice independence, scaling and torus-relation nullity.

Every suite reports pass/fail and, on failure, the exact inputs of the first
counterexample. All randomness is seeded, so runs are reproducible.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from .delzant import DelzantModel, build_model
from .exact_linalg import IntMatrix, rational_rank
from .invariant import invariant_coordinate, invariant_loop
from .oracles import (
    BlowupParams,
    blowup_model,
    cpn_invariant,
    cpn_kappa,
    cpn_model,
    facet_values_closed_form,
    invariant_closed_form,
    kappa_closed_form,
)
from .polytope import Polytope, lasserre_volume, volume


def standard_grid() -> tuple[BlowupParams, ...]:
    """24 rational (tau, mu) points with 0 < mu < tau, including (2, 1)."""
    taus = [Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
            Fraction(5, 2), Fraction(7, 3), Fraction(4), Fraction(7, 2),
            Fraction(5, 3), Fraction(9, 4), Fraction(3, 2), Fraction(5)]
    points = []
    for tau in taus:
        for factor in (Fraction(1, 3), Fraction(1, 2)):
            points.append(BlowupParams(tau, tau * factor))
    return tuple(points)


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _blowup_pipeline(p: BlowupParams) -> DelzantModel:
    W, level = blowup_model(p)
    return build_model(W, level)


def suite_oracle_consistency() -> SuiteResult:
    name = "oracle-consistency"
    for p in standard_grid():
        for coord in (0, 2, 3):
            value = invariant_closed_form(p, coord)
            total = sum(facet_values_closed_form(p, coord), Fraction(0))
            if total != value:
                return SuiteResult(name, False,
                                   f"facet sum {total} != invariant {value} at "
                                   f"tau={p.tau}, mu={p.mu}, coord={coord}")
        if kappa_closed_form(p, 2) + kappa_closed_form(p, 3) != p.mu:
            return SuiteResult(name, False, f"kappa sum relation fails at tau={p.tau}, mu={p.mu}")
        if 3 * kappa_closed_form(p, 0) + kappa_closed_form(p, 2) != p.tau:
            return SuiteResult(name, False, f"kappa level relation fails at tau={p.tau}, mu={p.mu}")
        if invariant_closed_form(p, 0) == 0:
            return SuiteResult(name, False, f"invariant vanishes at tau={p.tau}, mu={p.mu}")
    return SuiteResult(name, True, f"{len(standard_grid())} grid points")


def suite_blowup_grid() -> SuiteResult:
    name = "blowup-grid"
    for p in standard_grid():
        model = _blowup_pipeline(p)
        for coord in (0, 2, 3):
            rep = invariant_coordinate(model, coord)
            if rep.kappa != kappa_closed_form(p, coord):
                return SuiteResult(name, False,
                                   f"kappa mismatch at tau={p.tau}, mu={p.mu}, coord={coord}: "
                                   f"pipeline {rep.kappa} != {kappa_closed_form(p, coord)}")
            if rep.invariant != invariant_closed_form(p, coord):
                return SuiteResult(name, False,
                                   f"invariant mismatch at tau={p.tau}, mu={p.mu}, coord={coord}: "
                                   f"pipeline {rep.invariant} != {invariant_closed_form(p, coord)}")
            expected = facet_values_closed_form(p, coord)
            if rep.facet_contributions != expected:
                return SuiteResult(name, False,
                                   f"facet mismatch at tau={p.tau}, mu={p.mu}, coord={coord}: "
                                   f"pipeline {rep.facet_contributions} != {expected}")
            if coord == 0 and rep.invariant == 0:
                return SuiteResult(name, False, f"invariant vanished at tau={p.tau}, mu={p.mu}")
    return SuiteResult(name, True, f"{len(standard_grid())} grid points, 3 loops each")


def suite_cpn_vanishing() -> SuiteResult:
    name = "cpn-vanishing"
    cases = ([(1, t) for t in (Fraction(1), Fraction(2), Fraction(7, 3))]
             + [(2, t) for t in (Fraction(1), Fraction(3), Fraction(5, 2))]
             + [(n, Fraction(1)) for n in (3, 4, 5)])
    for n, tau in cases:
        W, level = cpn_model(n, tau)
        model = build_model(W, level)
        rep = invariant_coordinate(model, 0)
        if rep.invariant != cpn_invariant(n, tau):
            return SuiteResult(name, False, f"nonzero invariant {rep.invariant} at n={n}, tau={tau}")
        if rep.kappa != cpn_kappa(n, tau):
            return SuiteResult(name, False,
                               f"kappa {rep.kappa} != {cpn_kappa(n, tau)} at n={n}, tau={tau}")
    return SuiteResult(name, True, f"{len(cases)} cases")


def suite_loop_relations() -> SuiteResult:
    name = "loop-relations"
    for p in standard_grid():
        model = _blowup_pipeline(p)
        i1 = invariant_coordinate(model, 0).invariant
        i3 = invariant_coordinate(model, 2).invariant
        i4 = invariant_coordinate(model, 3).invariant
        if not (i4 == -i3 == 3 * i1):
            return SuiteResult(name, False,
                               f"relation fails at tau={p.tau}, mu={p.mu}: "
                               f"I(e4)={i4}, I(e3)={i3}, I(e1)={i1}")
    return SuiteResult(name, True, f"{len(standard_grid())} grid points")


def suite_torus_nullity(seed: int = 20240817) -> SuiteResult:
    name = "torus-nullity"
    rng = random.Random(seed)
    cases: list[tuple[str, IntMatrix, tuple]] = []
    W, level = cpn_model(2, Fraction(1))
    cases.append(("cp2", W, level))
    W, level = blowup_model(BlowupParams(Fraction(2), Fraction(1)))
    cases.append(("blowup", W, level))
    for t in range(3):
        Wr, lr = random_weight_data(rng)
        cases.append((f"random-{t}", Wr, lr))
    for label, W, level in cases:
        model = build_model(W, level)
        for i in range(W.rows):
            rep = invariant_loop(model, W.row(i))
            if rep.invariant != 0:
                return SuiteResult(name, False,
                                   f"{label}: row {W.row(i)} gives invariant {rep.invariant}")
    return SuiteResult(name, True, f"{len(cases)} manifolds")


def suite_volume_oracle(seed: int = 715225741) -> SuiteResult:
    name = "volume-oracle"
    rng = random.Random(seed)
    for trial in range(10):
        poly = random_bounded_polytope(rng)
        tri = volume(poly)
        las = lasserre_volume(poly)
        if tri != las:
            return SuiteResult(name, False,
                               f"trial {trial}: triangulation {tri} != recursion {las} "
                               f"for inequalities {poly.inequalities}")
    return SuiteResult(name, True, "10 randomized polytopes")


def _facet_masses(model: DelzantModel) -> list[Fraction]:
    return [Fraction(0) if f is None else f.mass for f in model.facet_moments]


def suite_choice_independence(seed: int = 987001) -> SuiteResult:
    name = "choice-independence"
    rng = random.Random(seed)
    manifolds = [("cp2", *cpn_model(2, Fraction(3, 2))),
                 ("blowup", *blowup_model(BlowupParams(Fraction(2), Fraction(1))))]
    for label, W, level in manifolds:
        base = build_model(W, level)
        base_reports = [invariant_coordinate(base, a) for a in range(base.m)]
        base_facets = _facet_masses(base)
        for trial in range(5):
            U = random_unimodular(rng, base.dim)
            twisted_kernel = base.kernel_basis @ U
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(base.dim)]
            moved = tuple(s + d for s, d in
                          zip(base.base_solution, base.kernel_basis.mul_vector(shift)))
            other = build_model(W, level, kernel_basis=twisted_kernel, base_solution=moved)
            if len(other.polytope.vertices) != len(base.polytope.vertices):
                return SuiteResult(name, False, f"{label} trial {trial}: vertex count changed")
            if other.moments.mass != base.moments.mass:
                return SuiteResult(name, False, f"{label} trial {trial}: volume changed")
            if _facet_masses(other) != base_facets:
                return SuiteResult(name, False, f"{label} trial {trial}: facet volumes changed")
            for a in range(base.m):
                if invariant_coordinate(other, a) != base_reports[a]:
                    return SuiteResult(name, False,
                                       f"{label} trial {trial}: report for coordinate {a} changed")
    return SuiteResult(name, True, "5 trials per manifold")


def suite_scaling() -> SuiteResult:
    name = "scaling"
    base = BlowupParams(Fraction(2), Fraction(1))
    i_base = invariant_coordinate(_blowup_pipeline(base), 0).invariant
    for gamma in (Fraction(2), Fraction(1, 3)):
        scaled = BlowupParams(base.tau * gamma, base.mu * gamma)
        i_scaled = invariant_coordinate(_blowup_pipeline(scaled), 0).invariant
        if i_scaled != gamma**3 * i_base:
            return SuiteResult(name, False,
                               f"gamma={gamma}: {i_scaled} != {gamma**3 * i_base}")
    return SuiteResult(name, True, "gamma in {2, 1/3}")


ALL_SUITES: tuple[Callable[[], SuiteResult], ...] = (
    suite_oracle_consistency,
    suite_blowup_grid,
    suite_cpn_vanishing,
    suite_loop_relations,
    suite_torus_nullity,
    suite_volume_oracle,
    suite_choice_independence,
    suite_scaling,
)


def run_all(out=None) -> bool:
    out = out if out is not None else sys.stdout
    ok = True
    for suite in ALL_SUITES:
        result = suite()
        status = "pass" if result.passed else "FAIL"
        print(f"suite {result.name:<24} {status}  ({result.detail})", file=out)
        ok = ok and result.passed
    print("all suites passed" if ok else "SELFTEST FAILED", file=out)
    return ok


def random_weight_data(rng: random.Random) -> tuple[IntMatrix, tuple[Fraction, ...]]:
    """A valid (W, level): spanning columns inside an open half space,
    with a level that keeps the polytope nonempty and full-dimensional."""
    while True:
        r = rng.choice((1, 2))
        n = rng.choice((1, 2))
        m = r + n
        columns = [[1] + [rng.randint(-2, 2) for _ in range(r - 1)] for _ in range(m)]
        W = IntMatrix.from_rows(columns).transpose()
        if rational_rank(columns) != r:
            continue
        positive = tuple(Fraction(rng.randint(1, 6), rng.randint(1, 3)) for _ in range(m))
        level = W.mul_vector(positive)
        return W, level


def random_bounded_polytope(rng: random.Random) -> Polytope:
    """Bounded full-dimensional polytope: a box plus random cuts through
    the origin's neighborhood (n <= 4, at most 10 inequalities)."""
    n = rng.choice((2, 3, 4))
    ineqs: list[tuple[list[int], Fraction]] = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        ineqs.append((list(e), Fraction(2)))
        e2 = [0] * n
        e2[i] = -1
        ineqs.append((e2, Fraction(2)))
    for _ in range(10 - 2 * n):
        normal = [rng.randint(-3, 3) for _ in range(n)]
        if all(e == 0 for e in normal):
            normal[rng.randrange(n)] = 1
        ineqs.append((normal, Fraction(rng.randint(1, 5))))
    return Polytope.from_inequalities(n, ineqs)


def random_unimodular(rng: random.Random, size: int) -> IntMatrix:
    """Product of random elementary integer operations (determinant +-1)."""
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    if size == 0:
        return IntMatrix.from_rows([])
    for _ in range(6 + 2 * size):
        op = rng.randrange(3)
        i = rng.randrange(size)
        j = rng.randrange(size)
        if op == 0 and i != j:
            k = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif op == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif op == 2:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows)
