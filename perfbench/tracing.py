"""Per-layer spans recorded from outside the package.

A ``Tracer`` replaces each traced public function of ``hamloop`` with a
wrapper, in every module namespace that holds it (including tuples such as
``selftest.ALL_SUITES``), records one span per call, and restores the
originals on ``uninstall``. Spans (name, start, end, parent span, op id) are
kept in flat arrays in memory and written out once the run ends; self times
and counts are derived from them afterwards. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from math import comb

# Traced functions per module. A metric group may sum several functions.
TRACED = {
    "cli": ("main",),
    "manifold_io": ("load_manifold", "build_report", "render_report_text",
                    "report_json_bytes"),
    "delzant": ("check_assumptions", "build_model", "smoothness_class"),
    "fourier_motzkin": ("find_point", "feasible", "make"),
    "polytope": ("enumerate_vertices", "interior_point", "triangulate", "volume",
                 "integrate_affine_facet", "facet_lattice_volume", "lasserre_volume"),
    "exact_linalg": ("rational_rank", "determinant", "integer_kernel", "solve_square"),
    "invariant": ("invariant_coordinate", "invariant_loop"),
    "oracles": ("kappa_closed_form", "invariant_closed_form",
                "facet_values_closed_form", "cpn_kappa", "cpn_invariant"),
    "selftest": ("suite_oracle_consistency", "suite_blowup_grid",
                 "suite_cpn_vanishing", "suite_loop_relations", "suite_torus_nullity",
                 "suite_volume_oracle", "suite_choice_independence", "suite_scaling"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")               # a span with no parent starts a new op
        self._ops = 0
        self._stack: list[int] = []
        # derived counts, keyed by span id
        self.subsets: dict[int, int] = {}      # enumerate_vertices: C(#ineqs, n)
        self.vertices: dict[int, int] = {}     # enumerate_vertices: vertices found
        self.simplices: dict[int, int] = {}    # triangulate: cells returned
        self.singular: set[int] = set()        # solve_square returned None
        self.coordinates: dict[int, tuple] = {}  # invariant_coordinate: (model, coord)
        self._models: list = []                # keeps ids unique while tracing
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        record = self._record_counts.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            if not stack:
                self._ops += 1
            self.span_name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._ops - 1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if record is not None:
                record(self, sid, args, kwargs, result)
            return result

        return traced

    def _count_enumerate(self, sid, args, kwargs, result):
        dim, ineqs = args[0], args[1]
        self.subsets[sid] = comb(len(ineqs), dim)
        self.vertices[sid] = len(result[0])

    def _count_triangulate(self, sid, args, kwargs, result):
        self.simplices[sid] = len(result)

    def _count_solve(self, sid, args, kwargs, result):
        if result is None:
            self.singular.add(sid)

    def _count_coordinate(self, sid, args, kwargs, result):
        model, coord = args[0], args[1]
        self._models.append(model)
        self.coordinates[sid] = (id(model), coord)

    _record_counts = {
        "polytope.enumerate_vertices": _count_enumerate,
        "polytope.triangulate": _count_triangulate,
        "exact_linalg.solve_square": _count_solve,
        "invariant.invariant_coordinate": _count_coordinate,
    }

    # ------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every traced function wherever a hamloop module holds it."""
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"hamloop.{module_name}"]
            for fn_name in functions:
                original = getattr(module, fn_name)
                wrappers[id(original)] = self._wrap(f"{module_name}.{fn_name}", original)
        for name, module in list(sys.modules.items()):
            if name != "hamloop" and not name.startswith("hamloop."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._patch(module, attr, value, wrappers[id(value)])
                elif isinstance(value, tuple) and any(id(v) in wrappers for v in value):
                    self._patch(module, attr, value,
                                tuple(wrappers.get(id(v), v) for v in value))

    def _patch(self, module, attr, original, replacement) -> None:
        self._patched.append((module, attr, original))
        setattr(module, attr, replacement)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._models.clear()

    # ------------------------------------------------------ results

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for sid in range(len(self.start)):
                out.write(f"{sid}\t{self.names[self.span_name[sid]]}\t"
                          f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t"
                          f"{self.parent[sid]}\t{self.op[sid]}\n")

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per-function call counts and self times (span minus child spans)."""
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        calls = {name: 0 for name in self.names}
        self_s = {name: 0.0 for name in self.names}
        for sid in range(n):
            name = self.names[self.span_name[sid]]
            calls[name] += 1
            self_s[name] += self.end[sid] - self.start[sid] - child[sid]
        return calls, self_s
