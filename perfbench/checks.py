"""Exact checks on reports, independent of the pipeline's own route.

Every check compares exact rationals; none uses a tolerance. They run after
the timed phase. The reference routes are the closed forms in
``hamloop.oracles``, the divergence-recursion volume
``hamloop.polytope.lasserre_volume`` (both share no code with the pipeline)
and formulas evaluated here from the generator's own data (for ``wide``,
the shoelace area of each polygon and the cut cube's closed-form volume).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from inputs import Case

SELFTEST_SUITES = 8


def _loops_by_weights(report: dict) -> dict[tuple, dict]:
    return {tuple(loop["weights"]): loop for loop in report["loops"]}


def _unit(m: int, a: int) -> tuple:
    return tuple(1 if k == a else 0 for k in range(m))


def _common(case: Case, report: dict) -> list[str]:
    """Shape, verdict and facet-sum consistency shared by every family."""
    problems = []
    poly = report["polytope"]
    if report["name"] != case.name:
        problems.append(f"name {report['name']!r}")
    if poly["dimension"] != case.n or len(poly["facets"]) != case.m:
        problems.append(f"dimension {poly['dimension']} / {len(poly['facets'])} facets")
    if len(poly["vertices"]) != case.vertices:
        problems.append(f"{len(poly['vertices'])} vertices, expected {case.vertices}")
    expected_loops = case.m + len(case.doc.get("loops", []))
    if len(report["loops"]) != expected_loops:
        problems.append(f"{len(report['loops'])} loops, expected {expected_loops}")
    for loop in report["loops"]:
        total = sum((Fraction(v) for v in loop["facet_contributions"].values()), Fraction(0))
        if total != Fraction(loop["invariant"]):
            problems.append(f"loop {loop['weights']}: facet sum {total} != invariant")
        zero = Fraction(loop["invariant"]) == 0
        if zero != (loop["verdict"] == "inconclusive"):
            problems.append(f"loop {loop['weights']}: verdict {loop['verdict']!r}")
    loops = _loops_by_weights(report)
    for row in case.doc.get("loops", []):
        loop = loops.get(tuple(row))
        if loop is None or Fraction(loop["invariant"]) != 0:
            problems.append(f"torus-relation loop {row} does not give I = 0")
    # Each row w of W has sum_j w_j s_j = tau_i on the whole polytope, so by
    # linearity sum_j w_j kappa(e_j) = tau_i and every facet's sum_j w_j N_k(e_j)
    # vanishes.
    coordinate_loops = [loops[_unit(case.m, j)] for j in range(case.m)]
    for i, tau in enumerate(case.doc["tau"]):
        row = [column[i] for column in case.doc["weights"]]
        kappa = sum((w * Fraction(loop["kappa"]) for w, loop in zip(row, coordinate_loops)),
                    Fraction(0))
        if kappa != Fraction(tau):
            problems.append(f"row {i} of W: sum of weighted kappas {kappa} != tau")
        for k in range(1, case.m + 1):
            total = sum((w * Fraction(loop["facet_contributions"][str(k)])
                         for w, loop in zip(row, coordinate_loops)), Fraction(0))
            if total != 0:
                problems.append(f"row {i} of W: facet {k} contributions sum to {total}")
    return problems


def _check_blowup(case: Case, report: dict, hamloop) -> list[str]:
    oracles = hamloop.oracles
    p = oracles.BlowupParams(case.facts["tau"], case.facts["mu"])
    problems = []
    if Fraction(report["polytope"]["volume"]) != (p.tau ** 3 - p.lam ** 3) / 6:
        problems.append("volume != (tau^3 - lambda^3)/6")
    loops = _loops_by_weights(report)
    # coordinates 1 and 4 rotate like coordinate 0 with the roles swapped
    for a, base, swap in ((0, 0, None), (1, 0, 1), (2, 2, None), (3, 3, None), (4, 0, 4)):
        loop = loops[_unit(5, a)]
        values = list(oracles.facet_values_closed_form(p, base))
        if swap is not None:
            values[0], values[swap] = values[swap], values[0]
        got = [Fraction(loop["facet_contributions"][str(k + 1)]) for k in range(5)]
        if Fraction(loop["kappa"]) != oracles.kappa_closed_form(p, base):
            problems.append(f"e{a + 1}: kappa != closed form")
        if Fraction(loop["invariant"]) != oracles.invariant_closed_form(p, base):
            problems.append(f"e{a + 1}: invariant != closed form")
        if got != values:
            problems.append(f"e{a + 1}: facet contributions != closed form")
    return problems


def _check_cpn(case: Case, report: dict, hamloop) -> list[str]:
    oracles = hamloop.oracles
    n, tau = case.facts["n"], case.facts["tau"]
    problems = []
    if Fraction(report["polytope"]["volume"]) != tau ** n / factorial(n):
        problems.append("volume != tau^n / n!")
    loops = _loops_by_weights(report)
    for a in range(n + 1):
        loop = loops[_unit(n + 1, a)]
        if Fraction(loop["kappa"]) != oracles.cpn_kappa(n, tau):
            problems.append(f"e{a + 1}: kappa != tau/(n+1)")
        if Fraction(loop["invariant"]) != oracles.cpn_invariant(n, tau):
            problems.append(f"e{a + 1}: invariant != 0")
    return problems


def _check_product(case: Case, report: dict, hamloop) -> list[str]:
    dims, level = case.facts["dims"], case.facts["level"]
    problems = []
    expected = prod((t ** a / factorial(a) for a, t in zip(dims, level)), start=Fraction(1))
    if Fraction(report["polytope"]["volume"]) != expected:
        problems.append(f"volume {report['polytope']['volume']} != {expected}")
    loops = _loops_by_weights(report)
    for a, i in enumerate(case.facts["factor_of"]):
        loop = loops[_unit(case.m, a)]
        if Fraction(loop["kappa"]) != level[i] / (dims[i] + 1):
            problems.append(f"e{a + 1}: kappa != tau_i/(a_i+1)")
        if Fraction(loop["invariant"]) != 0:
            problems.append(f"e{a + 1}: invariant != 0")
    return problems


def _check_lattice(case: Case, report: dict, hamloop) -> list[str]:
    poly = report["polytope"]
    inequalities = [(tuple(f["normal"]), Fraction(f["offset"])) for f in poly["facets"]]
    # the constructor enumerates nothing; lasserre_volume reads only the H-data
    h_poly = hamloop.polytope.Polytope(case.n, inequalities, (), ())
    problems = []
    volume = Fraction(poly["volume"])
    if volume != hamloop.polytope.lasserre_volume(h_poly):
        problems.append("volume != lasserre_volume")
    if volume != case.facts["volume"]:
        problems.append(f"volume {volume} != generator's {case.facts['volume']}")
    return problems


_BY_KIND = {
    "blowup": _check_blowup,
    "cpn": _check_cpn,
    "product": _check_product,
    "lattice": _check_lattice,
}


def check_report(case: Case, report: dict, hamloop) -> list[str]:
    """Problems found in one compute report; empty when it is exactly right."""
    try:
        return _common(case, report) + _BY_KIND[case.kind](case, report, hamloop)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {exc!r}"]


def check_selftest(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = [line for line in lines if line.startswith("suite ") and " pass " in line]
    problems = []
    if len(passed) != SELFTEST_SUITES:
        problems.append(f"{len(passed)} of {SELFTEST_SUITES} suites passed")
    if not lines or lines[-1] != "all suites passed":
        problems.append("missing 'all suites passed'")
    return problems


def max_denominator_bits(report: dict) -> int:
    """Largest denominator bit length among the report's rationals."""
    best = 0
    stack = [report]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str) and "/" in item:
            num, _, den = item.partition("/")
            if num.lstrip("-").isdigit() and den.isdigit():
                best = max(best, int(den).bit_length())
    return best
