"""hamloop benchmark: seeded manifold workloads through the user's own entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload highdim --seed 0 --seconds 50 --trace 0

Load is a closed loop with one client in one process and one thread: each
``hamloop.cli.main`` call (an *op*) starts when the previous one returns.
The timed phase runs whole passes over the workload's inputs until
``--seconds`` of ops have run. Every output is then checked exactly (see
``checks.py``); the last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics from one traced
pass and one traced ``hamloop selftest`` call (``--trace 1``). See README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from math import ceil
from pathlib import Path
from typing import NamedTuple, Optional

import checks
import inputs
import tracing

SETUPS_PER_PASS = 3
HASH_FILE = Path(__file__).with_name("report_hashes.json")
WORK_DIR = ".perfbench_work"

# op_tail_s is read at one fixed percentile on every workload, so that a
# faster program, which completes more ops, is compared at the same rank.
TAIL_QUANTILE = 0.9


def _import_hamloop(src: Path):
    for name in [n for n in sys.modules if n == "hamloop" or n.startswith("hamloop.")]:
        del sys.modules[name]
    importlib.import_module("hamloop.cli")
    package = sys.modules["hamloop"]
    if Path(package.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"hamloop was imported from {package.__file__}, not {src}")
    return package


def _write_inputs(cases, directory: Path) -> list[Path]:
    paths = []
    for case in cases:
        path = directory / f"{case.name}.json"
        path.write_text(json.dumps(case.doc), encoding="utf-8")
        paths.append(path)
    return paths


def setup(workload: str, seed: int, src: Path, directory: Path):
    """One set-up: import hamloop, generate the inputs and write them to disk."""
    t0 = time.perf_counter()
    hamloop = _import_hamloop(src)
    cases = inputs.WORKLOADS[workload](seed)
    paths = _write_inputs(cases, directory)
    return hamloop, cases, paths, time.perf_counter() - t0


class Op(NamedTuple):
    """One cli.main call and the exact fingerprint of what it produced."""

    case: int
    latency: float
    rc: Optional[int]
    report_hash: str
    stdout_hash: str
    error: Optional[str]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pass(hamloop, argvs, out_paths, first_outputs: dict) -> list[Op]:
    """One closed-loop pass: each op starts when the previous one returns."""
    ops = []
    for index, argv in enumerate(argvs):
        out_path = out_paths[index]
        if out_path is not None:
            out_path.unlink(missing_ok=True)
        sink = io.StringIO()
        error = None
        main = hamloop.cli.main
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = main(argv)
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            rc, error = None, repr(exc)
        latency = time.perf_counter() - t0
        stdout = sink.getvalue().encode("utf-8")
        report = stdout
        if out_path is not None:
            report = out_path.read_bytes() if out_path.exists() else b""
        first_outputs.setdefault(index, (report, stdout))
        ops.append(Op(index, latency, rc, _sha(report), _sha(stdout), error))
    return ops


def _recorded_hashes() -> dict:
    return json.loads(HASH_FILE.read_text(encoding="utf-8"))


def verify(workload: str, seed: int, cases, hamloop, ops, first_outputs) -> tuple[int, list[str]]:
    """Failed-op count and problem descriptions, all outside the timed phase."""
    expected = _recorded_hashes()[workload] if seed == inputs.DEFAULT_SEED else {}
    names = [case.name for case in cases]
    bad_case: dict[int, list[str]] = {}
    reference = {}
    for index, (report, stdout) in first_outputs.items():
        reference[index] = (_sha(report), _sha(stdout))
        try:
            problems = checks.check_report(cases[index], json.loads(report), hamloop)
        except json.JSONDecodeError as exc:
            problems = [f"report is not JSON: {exc}"]
        want = expected.get(names[index])
        if expected and want != reference[index][0]:
            problems.append(f"report hash {reference[index][0][:12]} != checked-in "
                            f"{str(want)[:12]}")
        if problems:
            bad_case[index] = problems
    failed = 0
    for op in ops:
        if (op.rc != 0 or op.case in bad_case
                or (op.report_hash, op.stdout_hash) != reference[op.case]):
            failed += 1
    problems = [f"{names[i]}: {p}" for i, ps in sorted(bad_case.items()) for p in ps]
    problems += [f"{names[op.case]}: exit {op.rc} {op.error or ''}".rstrip()
                 for op in ops if op.rc != 0][:5]
    return failed, problems


def verify_selftest(op: Op, stdout: bytes) -> list[str]:
    """Problems with the traced selftest call; its output is the same for every seed."""
    problems = checks.check_selftest(stdout.decode("utf-8"))
    if op.rc != 0:
        problems.append(f"exit {op.rc} {op.error or ''}".rstrip())
    want = _recorded_hashes()["selftest"]["selftest"]
    if op.report_hash != want:
        problems.append(f"output hash {op.report_hash[:12]} != checked-in {want[:12]}")
    return problems


def quantile(sorted_values, q: float) -> tuple[float, int]:
    """Nearest-rank q-quantile and the number of samples above its rank."""
    rank = max(1, ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(ops, busy_s, setup_times, peak_rss_kib):
    latencies = sorted(op.latency for op in ops)
    tail, beyond = quantile(latencies, TAIL_QUANTILE)
    return {
        "setup_s": (min(setup_times), "s", f"best of {len(setup_times)} set-ups; median "
                                           f"{statistics.median(setup_times):.4g} s"),
        "ops_per_s": (len(ops) / busy_s, "1/s", f"{len(ops)} ops in {busy_s:.4g} s"),
        "op_tail_s": (tail, "s", f"p{100 * TAIL_QUANTILE:g}, {len(ops)} samples, "
                                 f"{beyond} beyond"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB", "ru_maxrss of the benchmark process"),
    }


def per_layer(tracer: tracing.Tracer, selftest_tracer: tracing.Tracer, traced_ops,
              traced_elapsed, untraced_rate, first_outputs):
    calls, self_s = tracer.totals()

    def c(name):
        return calls.get(name, 0)

    def s(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    subsets = sum(tracer.subsets.values())
    vertices = sum(tracer.vertices.values())
    coordinate_calls = c("invariant.invariant_coordinate")
    denominator_bits = max(checks.max_denominator_bits(json.loads(report))
                           for report, _ in first_outputs.values())
    m = {
        "exact_linalg.rational_rank_calls": (c("exact_linalg.rational_rank"), "count"),
        "exact_linalg.rational_rank_s": (s("exact_linalg.rational_rank"), "s"),
        "exact_linalg.determinant_calls": (c("exact_linalg.determinant"), "count"),
        "exact_linalg.determinant_s": (s("exact_linalg.determinant"), "s"),
        "exact_linalg.integer_kernel_s": (s("exact_linalg.integer_kernel"), "s"),
        "polytope.triangulate_calls": (c("polytope.triangulate"), "count"),
        "polytope.triangulate_s": (s("polytope.triangulate"), "s"),
        "polytope.simplices": (sum(tracer.simplices.values()), "count"),
        "polytope.facet_integral_calls": (c("polytope.integrate_affine_facet")
                                          + c("polytope.facet_lattice_volume"), "count"),
        "polytope.facet_integral_s": (s("polytope.integrate_affine_facet",
                                        "polytope.facet_lattice_volume"), "s"),
        "polytope.volume_calls": (c("polytope.volume"), "count"),
        "polytope.volume_s": (s("polytope.volume"), "s"),
        "polytope.triangulations_per_model": (
            c("polytope.triangulate") / max(1, c("delzant.build_model")), "ratio"),
        "invariant.invariant_coordinate_calls": (coordinate_calls, "count"),
        "invariant.invariant_coordinate_s": (s("invariant.invariant_coordinate"), "s"),
        "invariant.coordinate_reuse": (
            len(set(tracer.coordinates.values())) / max(1, coordinate_calls), "ratio"),
        "invariant.invariant_loop_s": (s("invariant.invariant_loop"), "s"),
        "polytope.enumerate_vertices_s": (s("polytope.enumerate_vertices"), "s"),
        "polytope.subsets_tried": (subsets, "count"),
        "polytope.vertex_yield": (vertices / max(1, subsets), "ratio"),
        "exact_linalg.solve_square_calls": (c("exact_linalg.solve_square"), "count"),
        "exact_linalg.solve_square_s": (s("exact_linalg.solve_square"), "s"),
        "exact_linalg.solve_square_singular_share": (
            len(tracer.singular) / max(1, c("exact_linalg.solve_square")), "ratio"),
        "polytope.interior_point_s": (s("polytope.interior_point"), "s"),
        "fourier_motzkin.find_point_calls": (c("fourier_motzkin.find_point"), "count"),
        "fourier_motzkin.find_point_s": (s("fourier_motzkin.find_point"), "s"),
        "fourier_motzkin.feasible_calls": (c("fourier_motzkin.feasible"), "count"),
        "fourier_motzkin.make_calls": (c("fourier_motzkin.make"), "count"),
        "fourier_motzkin.make_s": (s("fourier_motzkin.make"), "s"),
        "delzant.check_assumptions_calls": (c("delzant.check_assumptions"), "count"),
        "delzant.check_assumptions_s": (s("delzant.check_assumptions"), "s"),
        "delzant.build_model_s": (s("delzant.build_model"), "s"),
        "delzant.smoothness_class_s": (s("delzant.smoothness_class"), "s"),
        "manifold_io.load_manifold_s": (s("manifold_io.load_manifold"), "s"),
        "manifold_io.build_report_s": (s("manifold_io.build_report"), "s"),
        "manifold_io.render_s": (s("manifold_io.render_report_text",
                                   "manifold_io.report_json_bytes"), "s"),
        "cli.main_s": (s("cli.main"), "s"),
    }
    # the selftest layers, from the one traced selftest call
    _, selftest_s = selftest_tracer.totals()
    for suite in tracing.TRACED["selftest"]:
        name = suite.removeprefix("suite_").replace("_", "-")
        m[f"selftest.{name}_s"] = (selftest_s[f"selftest.{suite}"], "s")
    m["polytope.lasserre_volume_s"] = (selftest_s["polytope.lasserre_volume"], "s")
    m["oracles.closed_form_s"] = (sum(selftest_s[f"oracles.{f}"]
                                      for f in tracing.TRACED["oracles"]), "s")
    m["exact_linalg.max_denominator_bits"] = (denominator_bits, "bits")
    m["trace_overhead"] = ((len(traced_ops) / traced_elapsed) / untraced_rate, "ratio")
    return m


def _describe_inputs(cases) -> str:
    return "\n".join(f"  {case.name}: m={case.m} n={case.n} vertices={case.vertices}"
                     for case in cases)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hamloop" / "__init__.py").is_file():
        print(f"error: no hamloop sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, root, src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, src: Path, work: Path) -> int:
    # The first import may compile bytecode, which users pay once; it is not
    # one of the measured set-ups.
    try:
        hamloop, cases, paths, _ = setup(args.workload, args.seed, src, work)
    except ImportError as exc:
        print(f"error: cannot import hamloop: {exc}", file=sys.stderr)
        return 2
    out_paths = [path.with_suffix(".out.json") for path in paths]
    argvs = [["compute", str(p), "--all", "--json", str(o)]
             for p, o in zip(paths, out_paths)]

    print(f"hamloop benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"load: closed loop, 1 client, 1 thread")
    print(f"inputs per pass: {len(argvs)}")
    print(_describe_inputs(cases))

    # Set-ups are spread over the run, SETUPS_PER_PASS before each pass, so
    # they see the same machine as the ops. Only passes are timed. setup_s is
    # the best set-up: one takes about 50 ms, so each falls in a single phase
    # of the machine's speed (see README.md), and their median jumps with the
    # share of slow phases in the run while their minimum does not.
    # Each set-up discards a copy of the package; that garbage is collected
    # before the pass, so the timed ops do not pay for it and peak RSS does
    # not grow with the number of passes.
    first_outputs: dict = {}
    ops: list[Op] = []
    setup_times: list[float] = []
    busy_s = 0.0
    passes = 0
    while busy_s < args.seconds:
        for _ in range(SETUPS_PER_PASS):
            hamloop, _, _, setup_s = setup(args.workload, args.seed, src, work)
            setup_times.append(setup_s)
        gc.collect()
        t0 = time.perf_counter()
        ops += run_pass(hamloop, argvs, out_paths, first_outputs)
        busy_s += time.perf_counter() - t0
        passes += 1
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"timed phase: {passes} passes, {len(ops)} ops, {busy_s:.3f} s")

    all_ops = list(ops)
    selftest_problems: list[str] = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced_ops = run_pass(hamloop, argvs, out_paths, first_outputs)
            traced_elapsed = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        all_ops += traced_ops
        spans_path = root / WORK_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        print(f"traced pass: {len(traced_ops)} ops, {traced_elapsed:.3f} s, "
              f"{len(tracer.start)} spans written to {spans_path.relative_to(root)}")
        # The selftest layers run only under `hamloop selftest`: trace one call.
        selftest_tracer = tracing.Tracer()
        selftest_tracer.install()
        try:
            selftest_outputs: dict = {}
            selftest_op, = run_pass(hamloop, [["selftest"]], [None], selftest_outputs)
        finally:
            selftest_tracer.uninstall()
        selftest_problems = [f"selftest: {p}"
                             for p in verify_selftest(selftest_op, selftest_outputs[0][1])]
        selftest_spans = spans_path.with_name(spans_path.stem + "-selftest.tsv")
        selftest_tracer.write(selftest_spans)
        print(f"traced selftest: {selftest_op.latency:.3f} s, "
              f"{len(selftest_tracer.start)} spans written to "
              f"{selftest_spans.relative_to(root)}")

    failed, problems = verify(args.workload, args.seed, cases, hamloop, all_ops, first_outputs)
    failed += bool(selftest_problems)
    problems = selftest_problems + problems
    attempted = len(all_ops) + args.trace
    for problem in problems:
        print(f"FAILED: {problem}")
    print(f"failed_share = {failed / attempted:g} ({failed} of {attempted} ops)")

    if args.trace:
        metrics = per_layer(tracer, selftest_tracer, traced_ops, traced_elapsed,
                            len(ops) / busy_s, first_outputs)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        metrics = end_to_end(ops, busy_s, setup_times, peak_rss_kib)
        for name, (value, unit, note) in metrics.items():
            print(f"{name} = {value:.6g} {unit}  ({note})")
        median = statistics.median(op.latency for op in ops)
        print(f"op median = {median:.6g} s  ({len(ops)} samples; printed only, see README)")
        out = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
