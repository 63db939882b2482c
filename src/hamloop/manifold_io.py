"""Manifold description files and report serialization.

Input is a single JSON document:

    {
      "name": "cp3-blowup",
      "weights": [[1, 0], [1, 0], [1, 1], [0, 1], [1, 0]],
      "tau": ["2", "1"],
      "loops": [[1, 0, 0, 0, 0]]
    }

Row j of "weights" is the integer weight vector of coordinate j (so the
matrix W has these rows as its columns). "tau" entries and every rational
in a report travel as exact strings "p" or "p/q"; no floats anywhere.
"loops" is optional.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .delzant import DelzantModel, SmoothnessClass
from .exact_linalg import IntMatrix
from .invariant import InvariantReport


class ManifoldFormatError(Exception):
    """Malformed manifold description; the message names the field."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _is_int(value) -> bool:
    """JSON integer; true and false are not (bool subclasses int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(text, field: str = "value") -> Fraction:
    """Exact rational from a "p" or "p/q" string; rejects anything else."""
    if _is_int(text):
        return Fraction(text)
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ManifoldFormatError(f"{field}: expected an integer or 'p/q' string, got {text!r}")
    body = text.strip()
    if "/" in body:
        num, den = body.split("/")
        if int(den) == 0:
            raise ManifoldFormatError(f"{field}: zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(body))


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


class ManifoldInput(NamedTuple):
    name: str
    weights: IntMatrix
    level: tuple[Fraction, ...]
    loops: tuple[tuple[int, ...], ...]


def parse_manifold(data) -> ManifoldInput:
    if not isinstance(data, dict):
        raise ManifoldFormatError("top level: expected a JSON object")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ManifoldFormatError("name: expected a nonempty string")
    rows = data.get("weights")
    if not isinstance(rows, list) or not rows:
        raise ManifoldFormatError("weights: expected a nonempty list of integer rows")
    r = None
    parsed_rows = []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or not row or not all(_is_int(e) for e in row):
            raise ManifoldFormatError(f"weights[{j}]: expected a nonempty list of integers")
        if r is None:
            r = len(row)
        elif len(row) != r:
            raise ManifoldFormatError(f"weights[{j}]: expected {r} entries, got {len(row)}")
        parsed_rows.append(row)
    m = len(parsed_rows)
    if r < 1:
        raise ManifoldFormatError("weights: rows must have at least one entry")
    if m < r:
        raise ManifoldFormatError(f"weights: need at least r={r} coordinates, got m={m}")
    W = IntMatrix.from_rows(parsed_rows).transpose()

    tau = data.get("tau")
    if not isinstance(tau, list) or len(tau) != r:
        raise ManifoldFormatError(f"tau: expected a list of {r} rationals")
    level = tuple(parse_rational(t, field=f"tau[{i}]") for i, t in enumerate(tau))

    loops_raw = data.get("loops", [])
    if loops_raw is None:
        loops_raw = []
    if not isinstance(loops_raw, list):
        raise ManifoldFormatError("loops: expected a list of integer vectors")
    loops = []
    for i, loop in enumerate(loops_raw):
        if (not isinstance(loop, list) or len(loop) != m
                or not all(_is_int(e) for e in loop)):
            raise ManifoldFormatError(f"loops[{i}]: expected {m} integers")
        loops.append(tuple(loop))
    return ManifoldInput(name, W, level, tuple(loops))


def load_manifold(path) -> ManifoldInput:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ManifoldFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifoldFormatError(f"{path} is not valid JSON: {exc}") from exc
    return parse_manifold(data)


def loop_label(weights: Sequence[int]) -> str:
    units = [k for k, c in enumerate(weights) if c != 0]
    if len(units) == 1 and weights[units[0]] == 1:
        return f"e{units[0] + 1}"
    return "(" + ",".join(str(c) for c in weights) + ")"


def build_report(inp: ManifoldInput, model: DelzantModel, smoothness: SmoothnessClass,
                 loop_reports: Sequence[InvariantReport]) -> dict:
    """ReportFile dictionary with fixed field order; JSON-serializable."""
    assumptions = model.assumptions
    witness = assumptions.halfspace_witness
    facets = []
    for k in range(model.m):
        entry: dict = {"coordinate": k + 1}
        facet = model.facets[k]
        if facet is None:
            entry.update(normal=None, offset=None, scale=None,
                         lattice_volume="0", empty=True)
        else:
            _, offset = model.polytope.inequalities[facet.index]
            entry.update(
                normal=list(facet.normal),
                offset=format_rational(offset),
                scale=model.scales[k],
                lattice_volume=format_rational(model.facet_moments[k].mass),
                empty=not facet.full,
            )
        facets.append(entry)
    loops = []
    for rep in loop_reports:
        loops.append({
            "weights": list(rep.loop.weights),
            "kappa": format_rational(rep.kappa),
            "facet_contributions": {
                str(k + 1): format_rational(v)
                for k, v in enumerate(rep.facet_contributions)
            },
            "invariant": format_rational(rep.invariant),
            "verdict": rep.verdict.value,
        })
    return {
        "name": inp.name,
        "assumptions": {
            "rank": assumptions.rank,
            "required_rank": assumptions.required_rank,
            "rank_ok": assumptions.rank_ok,
            "halfspace_ok": assumptions.halfspace_ok,
            "halfspace_witness": None if witness is None
            else [format_rational(x) for x in witness],
        },
        "polytope": {
            "dimension": model.dim,
            "volume": format_rational(model.moments.mass),
            "smoothness": smoothness.value,
            "vertices": [[format_rational(x) for x in v]
                         for v in model.polytope.vertices],
            "facets": facets,
        },
        "loops": loops,
    }


def report_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def render_report_text(report: dict) -> str:
    lines = [f"manifold: {report['name']}"]
    a = report["assumptions"]
    rank_word = "ok" if a["rank_ok"] else "FAILED"
    half_word = "ok" if a["halfspace_ok"] else "FAILED"
    witness = a["halfspace_witness"]
    witness_text = f" (xi = ({', '.join(witness)}))" if witness else ""
    lines.append(f"assumptions: rank {a['rank']} of {a['required_rank']} {rank_word}; "
                 f"open half space {half_word}{witness_text}")
    p = report["polytope"]
    lines.append(f"polytope: dimension {p['dimension']}, {len(p['vertices'])} vertices, "
                 f"volume {p['volume']}, class {p['smoothness']}")
    lines.append("facets (coordinate: normal, offset, scale, lattice volume):")
    for f in p["facets"]:
        if f["normal"] is None:
            lines.append(f"  {f['coordinate']}: constant slice, never a facet")
            continue
        normal = "(" + ", ".join(str(e) for e in f["normal"]) + ")"
        empty = "  [empty]" if f["empty"] else ""
        lines.append(f"  {f['coordinate']}: {normal}, {f['offset']}, "
                     f"{f['scale']}, {f['lattice_volume']}{empty}")
    for loop in report["loops"]:
        lines.append(f"loop {loop_label(loop['weights'])} "
                     f"[{' '.join(str(c) for c in loop['weights'])}]:")
        lines.append(f"  kappa = {loop['kappa']}")
        contribs = "  ".join(f"{k}: {v}" for k, v in loop["facet_contributions"].items())
        lines.append(f"  facet contributions: {contribs}")
        lines.append(f"  invariant I = {loop['invariant']}")
        lines.append(f"  verdict: {loop['verdict']}")
    return "\n".join(lines) + "\n"
