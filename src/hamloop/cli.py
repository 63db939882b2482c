"""Command-line front end.

Exit codes: 0 success, 1 malformed input, 2 mathematical validation
failure (failed standing assumption, empty polytope, irregular level,
parameters outside their valid range). An unbounded polytope cannot occur
once the open half-space check passes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import selftest
from .delzant import (
    AssumptionsViolated,
    NotFullDimensional,
    build_model,
    smoothness_class,
)
from .exact_linalg import NoSolution
from .invariant import LoopSpec, invariant_loop
from .manifold_io import (
    ManifoldFormatError,
    build_report,
    format_rational,
    load_manifold,
    loop_label,
    parse_rational,
    render_report_text,
    report_json_bytes,
)
from .oracles import (
    BadParams,
    BlowupParams,
    cpn_invariant,
    cpn_kappa,
    facet_values_closed_form,
    invariant_closed_form,
    kappa_closed_form,
)
from .polytope import EmptyPolytope


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hamloop",
        description="Exact characteristic numbers of coordinate-rotation "
                    "Hamiltonian loops on toric symplectic quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="process a manifold description file")
    p_compute.add_argument("file", help="JSON manifold description")
    p_compute.add_argument("--loop-index", action="append", type=int, default=[],
                           metavar="A", help="coordinate loop index, 1-based (repeatable)")
    p_compute.add_argument("--loop-weights", action="append", default=[],
                           metavar="C1,...,CM", help="integer loop weights (repeatable)")
    p_compute.add_argument("--all", action="store_true",
                           help="include all m coordinate loops")
    p_compute.add_argument("--json", metavar="OUT", default=None,
                           help="also write the report as JSON to OUT")

    sub.add_parser("selftest", help="run the oracle-vs-pipeline grid and property suites")

    p_oracle = sub.add_parser("oracle", help="print closed-form reference values")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_name", required=True)
    p_blow = oracle_sub.add_parser("blowup-cp3", help="blow-up family values")
    p_blow.add_argument("--tau", required=True)
    p_blow.add_argument("--mu", required=True)
    p_cpn = oracle_sub.add_parser("cpn", help="projective-space values")
    p_cpn.add_argument("--n", required=True, type=int)
    p_cpn.add_argument("--tau", required=True)

    args = parser.parse_args(argv)
    if args.command == "compute":
        return _run_compute(args)
    if args.command == "selftest":
        return 0 if selftest.run_all() else 1
    if args.oracle_name == "blowup-cp3":
        return _run_oracle_blowup(args)
    return _run_oracle_cpn(args)


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _run_compute(args) -> int:
    try:
        inp = load_manifold(args.file)
    except ManifoldFormatError as exc:
        return _fail(1, f"invalid input: {exc}")

    m = inp.weights.cols
    try:
        loops = _requested_loops(args, inp, m)
    except ManifoldFormatError as exc:
        return _fail(1, f"invalid input: {exc}")

    try:
        model = build_model(inp.weights, inp.level)
    except AssumptionsViolated as exc:
        return _fail(2, f"validation failed: {exc}")
    except NoSolution:
        return _fail(2, "validation failed: tau is not in the rational span of "
                        "the weight vectors")
    except EmptyPolytope as exc:
        return _fail(2, f"validation failed: the moment polytope is empty ({exc})")
    except NotFullDimensional as exc:
        return _fail(2, f"validation failed: tau is not a regular value ({exc})")

    loop_reports = [invariant_loop(model, loop) for loop in loops]
    doc = build_report(inp, model, smoothness_class(model), loop_reports)
    sys.stdout.write(render_report_text(doc))
    if args.json:
        with open(args.json, "wb") as handle:
            handle.write(report_json_bytes(doc))
    return 0


def _requested_loops(args, inp, m: int) -> list[LoopSpec]:
    loops: list[LoopSpec] = []
    explicit = False
    if args.all:
        loops.extend(LoopSpec.coordinate(m, a) for a in range(m))
        explicit = True
    for loop in inp.loops:
        loops.append(LoopSpec(loop))
        explicit = True
    for a in args.loop_index:
        if not 1 <= a <= m:
            raise ManifoldFormatError(f"--loop-index {a}: expected 1..{m}")
        loops.append(LoopSpec.coordinate(m, a - 1))
        explicit = True
    for text in args.loop_weights:
        parts = [p.strip() for p in text.split(",")]
        try:
            weights = tuple(int(p) for p in parts)
        except ValueError:
            raise ManifoldFormatError(f"--loop-weights {text!r}: expected integers")
        if len(weights) != m:
            raise ManifoldFormatError(f"--loop-weights {text!r}: expected {m} entries")
        loops.append(LoopSpec(weights))
        explicit = True
    if not explicit:
        loops = [LoopSpec.coordinate(m, a) for a in range(m)]
    return loops


def _run_oracle_blowup(args) -> int:
    try:
        tau = parse_rational(args.tau, field="--tau")
        mu = parse_rational(args.mu, field="--mu")
    except ManifoldFormatError as exc:
        return _fail(1, f"invalid input: {exc}")
    try:
        p = BlowupParams(tau, mu)
    except BadParams as exc:
        return _fail(2, f"validation failed: {exc}")
    lines = [f"blow-up family at tau = {format_rational(p.tau)}, "
             f"mu = {format_rational(p.mu)} (lambda = {format_rational(p.lam)})"]
    for coord, symbol in ((0, "kappa"), (2, "kappa~"), (3, "kappa^")):
        lines.append(f"  {symbol:<7} = {format_rational(kappa_closed_form(p, coord))}")
    for coord in (0, 2, 3):
        label = loop_label([1 if k == coord else 0 for k in range(5)])
        lines.append(f"  I({label})   = {format_rational(invariant_closed_form(p, coord))}")
        values = ", ".join(format_rational(v) for v in facet_values_closed_form(p, coord))
        lines.append(f"    facet values: ({values})")
    print("\n".join(lines))
    return 0


def _run_oracle_cpn(args) -> int:
    try:
        tau = parse_rational(args.tau, field="--tau")
    except ManifoldFormatError as exc:
        return _fail(1, f"invalid input: {exc}")
    try:
        kappa = cpn_kappa(args.n, tau)
        inv = cpn_invariant(args.n, tau)
    except BadParams as exc:
        return _fail(2, f"validation failed: {exc}")
    print(f"projective {args.n}-space at tau = {format_rational(tau)}")
    print(f"  kappa = {format_rational(kappa)}")
    print(f"  I(e1) = {format_rational(inv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
