import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hamloop.delzant as delzant
import hamloop.fourier_motzkin as fourier_motzkin
import hamloop.polytope as polytope
from hamloop.cli import main
from hamloop.manifold_io import parse_rational

BLOWUP_DOC = {
    "name": "cp3-blowup",
    "weights": [[1, 0], [1, 0], [1, 1], [0, 1], [1, 0]],
    "tau": ["2", "1"],
    "loops": [[1, 0, 0, 0, 0]],
}

CP2_DOC = {
    "name": "cp2",
    "weights": [[1], [1], [1]],
    "tau": ["1"],
}


@pytest.fixture
def blowup_file(tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_DOC))
    return path


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(CP2_DOC))
    return path


class TestCompute:
    def test_blowup_report(self, blowup_file, capsys):
        assert main(["compute", str(blowup_file)]) == 0
        out = capsys.readouterr().out
        assert "invariant I = -1/2" in out
        assert "verdict: infinite cyclic subgroup in pi_1(Ham)" in out
        assert "kappa = 15/28" in out

    def test_cp2_inconclusive(self, cp2_file, capsys):
        assert main(["compute", str(cp2_file), "--loop-index", "1"]) == 0
        out = capsys.readouterr().out
        assert "invariant I = 0" in out
        assert "verdict: inconclusive" in out

    def test_default_is_all_coordinate_loops(self, cp2_file, capsys):
        assert main(["compute", str(cp2_file)]) == 0
        out = capsys.readouterr().out
        assert out.count("verdict:") == 3

    def test_loop_weights_flag(self, blowup_file, capsys):
        assert main(["compute", str(blowup_file), "--loop-weights", "1,1,1,0,1"]) == 0
        out = capsys.readouterr().out
        blocks = out.split("loop ")
        assert "invariant I = 0" in blocks[-1]

    def test_half_space_violation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"name": "bad", "weights": [[1], [-1]], "tau": ["1"]}))
        assert main(["compute", str(path)]) == 2
        err = capsys.readouterr().err
        assert "half space" in err

    def test_empty_polytope_exits_2(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"name": "empty", "weights": [[1], [1]], "tau": ["-1"]}))
        assert main(["compute", str(path)]) == 2
        assert "empty" in capsys.readouterr().err

    def test_infeasible_level_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nosol.json"
        path.write_text(json.dumps(
            {"name": "nosol", "weights": [[1, 1], [1, 1], [1, 1]], "tau": ["1", "2"]}))
        assert main(["compute", str(path)]) == 2

    def test_malformed_exits_1(self, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(
            {"name": "m", "weights": [[1], [1]], "tau": ["1/0"]}))
        assert main(["compute", str(path)]) == 1
        assert "tau[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("field, doc", [
        ("weights[0]", {**CP2_DOC, "weights": [[True], [1], [1]]}),
        ("loops[0]", {**CP2_DOC, "loops": [[True, 0, 0]]}),
        ("tau[0]", {**CP2_DOC, "tau": [True]}),
    ])
    def test_boolean_entries_exit_1(self, tmp_path, capsys, field, doc):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        assert main(["compute", str(path)]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("weights, tau", [
        # blow-up on the wall mu = tau: four slices meet at the origin
        (BLOWUP_DOC["weights"], ["2", "2"]),
        # level on the ray of the third weight column
        ([[1, 0], [1, 0], [1, 1], [1, 2]], ["3", "3"]),
        # second projective line at level 0: the polytope is a segment
        ([[1, 0], [1, 0], [0, 1], [0, 1]], ["1", "0"]),
    ])
    def test_non_regular_level_exits_2(self, tmp_path, capsys, weights, tau):
        path = tmp_path / "wall.json"
        path.write_text(json.dumps({"name": "wall", "weights": weights, "tau": tau}))
        assert main(["compute", str(path)]) == 2
        assert "not a regular value" in capsys.readouterr().err

    def test_geometry_computed_once(self, blowup_file, tmp_path, monkeypatch, capsys):
        # one Fourier-Motzkin run, for the half-space witness, and one
        # Facet per non-constant slice of the blow-up (m = 5)
        calls = {"triangulate": 0, "check_assumptions": 0, "find_point": 0, "facet": 0}
        for owner, name in ((polytope, "triangulate"), (delzant, "check_assumptions"),
                            (fourier_motzkin, "find_point"), (polytope.Polytope, "facet")):
            def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        out = tmp_path / "report.json"
        assert main(["compute", str(blowup_file), "--all", "--json", str(out)]) == 0
        assert calls == {"triangulate": 1, "check_assumptions": 1, "find_point": 1, "facet": 5}

    def test_bad_loop_index_exits_1(self, cp2_file, capsys):
        assert main(["compute", str(cp2_file), "--loop-index", "7"]) == 1

    def test_bad_loop_weights_exit_1(self, cp2_file, capsys):
        assert main(["compute", str(cp2_file), "--loop-weights", "1,2"]) == 1
        assert main(["compute", str(cp2_file), "--loop-weights", "a,b,c"]) == 1


class TestJsonReport:
    def test_contents_and_round_trip(self, blowup_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["compute", str(blowup_file), "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["name"] == "cp3-blowup"
        assert doc["polytope"]["volume"] == "7/6"
        assert doc["polytope"]["smoothness"] == "Delzant"
        loop = doc["loops"][0]
        assert loop["invariant"] == "-1/2"
        assert loop["kappa"] == "15/28"
        assert loop["verdict"] == "infinite cyclic subgroup in pi_1(Ham)"
        assert parse_rational(loop["invariant"]) == Fraction(-1, 2)
        contributions = [parse_rational(v) for v in loop["facet_contributions"].values()]
        assert sum(contributions) == Fraction(-1, 2)
        for row in doc["polytope"]["vertices"]:
            for cell in row:
                parse_rational(cell)

    def test_byte_identical_across_runs(self, blowup_file, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["compute", str(blowup_file), "--all", "--json", str(a)]) == 0
        assert main(["compute", str(blowup_file), "--all", "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_every_rational_in_report_reparses(self, blowup_file, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        assert main(["compute", str(blowup_file), "--all", "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))

        def sweep(node):
            if isinstance(node, dict):
                for key, value in node.items():
                    if key in {"name", "smoothness", "verdict"}:
                        continue
                    sweep(value)
            elif isinstance(node, list):
                for item in node:
                    sweep(item)
            elif isinstance(node, str):
                q = parse_rational(node)
                assert str(q) == node  # serialized form is the reduced one

        sweep(doc)

    def test_constant_slice_reported_without_normal(self, tmp_path, capsys):
        # first weight vector lies in the span of the others alone: its
        # moment coordinate is constant and never cuts a facet
        path = tmp_path / "const.json"
        path.write_text(json.dumps({
            "name": "circle-times-sphere",
            "weights": [[1, 0], [0, 1], [0, 1]],
            "tau": ["2", "1"],
        }))
        out_path = tmp_path / "const-report.json"
        assert main(["compute", str(path), "--json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        first = doc["polytope"]["facets"][0]
        assert first["normal"] is None and first["empty"] is True
        loop0 = doc["loops"][0]
        assert loop0["kappa"] == "2"
        assert loop0["invariant"] == "0"
        assert all(v == "0" for v in loop0["facet_contributions"].values())


class TestOracle:
    def test_blowup_table(self, capsys):
        assert main(["oracle", "blowup-cp3", "--tau", "2", "--mu", "1"]) == 0
        out = capsys.readouterr().out
        assert "I(e1)   = -1/2" in out
        assert "I(e3)   = 3/2" in out
        assert "I(e4)   = -3/2" in out

    def test_bad_params_exit_2(self, capsys):
        assert main(["oracle", "blowup-cp3", "--tau", "1", "--mu", "2"]) == 2
        assert "mu < tau required" in capsys.readouterr().err

    def test_malformed_rational_exit_1(self, capsys):
        assert main(["oracle", "blowup-cp3", "--tau", "1.5", "--mu", "1"]) == 1

    def test_cpn(self, capsys):
        assert main(["oracle", "cpn", "--n", "2", "--tau", "1"]) == 0
        out = capsys.readouterr().out
        assert "I(e1) = 0" in out
        assert "kappa = 1/3" in out


def test_import_generates_no_dataclass_methods():
    """Every command pays the package import; it must not pull in dataclasses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import hamloop.cli, sys; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
