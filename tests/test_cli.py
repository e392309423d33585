import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geomcrystal import ud
from geomcrystal.cli import main
from geomcrystal.gyt import SharpElement
from geomcrystal.ratfun import parse


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_verma_rank_two(self, capsys):
        code, out = run(capsys, "verify", "verma", "--n", "2")
        assert code == 0
        assert "[ok]" in out
        assert "2/2 checks hold" in out

    def test_all_rank_one(self, capsys):
        code, out = run(capsys, "verify", "all", "--n", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_cap_enforced(self, capsys):
        code, out = run(capsys, "verify", "verma", "--n", "9")
        assert code == 2
        assert "capped" in out

    def test_cap_override_flag_exists(self, capsys):
        # a higher cap lets the suite run (kept tiny here: rank 4 fi-mi)
        code, out = run(capsys, "verify", "fi-mi", "--n", "4")
        assert code == 0

    def test_fimi_at_its_cap(self, capsys):
        for n in ("7", "8"):
            code, out = run(capsys, "verify", "fi-mi", "--n", n)
            assert code == 0
            assert "FAIL" not in out

    def test_prop43_at_its_cap(self, capsys):
        code, out = run(capsys, "verify", "prop43", "--n", "8")
        assert code == 0
        assert "8/8 checks hold" in out

    def test_axioms_at_its_cap(self, capsys):
        # unit action, weight equivariance and one-parameter law per direction
        code, out = run(capsys, "verify", "axioms", "--n", "8")
        assert code == 0
        assert "24/24 checks hold" in out

    def test_umorphism_at_its_cap(self, capsys):
        # embedding equivariance and torus compatibility per direction
        code, out = run(capsys, "verify", "umorphism", "--n", "8")
        assert code == 0
        assert "16/16 checks hold" in out

    def test_positivity_at_its_cap(self, capsys):
        # seven weight components, 7 * 28 action and 2 * 28 chart-change components
        code, out = run(capsys, "verify", "positivity", "--n", "7")
        assert code == 0
        assert "259/259 checks hold" in out

    def test_sharp_axioms_at_its_cap(self, capsys):
        # four free-crystal, three Weyl and one tableau-oracle check
        code, out = run(capsys, "verify", "sharp-axioms", "--n", "8")
        assert code == 0
        assert "8/8 checks hold" in out

    def test_ud_main_at_its_cap(self, capsys):
        # eight action checks, the weight check and the soundness check
        code, out = run(capsys, "verify", "ud-main", "--n", "8")
        assert code == 0
        assert "10/10 checks hold" in out

    def test_verma_at_its_cap(self, capsys):
        # fifteen rank-2 pairs at n=6, each in matrix form and in the ratio chart
        code, out = run(capsys, "verify", "verma", "--n", "6")
        assert code == 0
        assert "30/30 checks hold" in out

    def test_json_output(self, capsys):
        code, out = run(capsys, "verify", "axioms", "--n", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert all(entry["holds"] for entry in payload)

    def test_reports_sorted(self, capsys):
        code, out = run(capsys, "verify", "umorphism", "--n", "2", "--json")
        names = [entry["check"] for entry in json.loads(out)]
        assert names == sorted(names)


class TestAct:
    def test_sharp_raise(self, tmp_path, capsys):
        state = tmp_path / "v.json"
        state.write_text(json.dumps({"n": 2, "B": {"1,2": 2, "1,3": 1, "2,3": 3}}))
        code, _ = run(capsys, "act", "sharp", str(state), "--i", "2", "--param", "+1")
        assert code == 0
        moved = SharpElement.from_json(json.loads(state.read_text()))
        assert moved == SharpElement(2, {(1, 2): 2, (1, 3): 1, (2, 3): 2})

    def test_geom_identity_parameter(self, tmp_path, capsys):
        state = tmp_path / "q.json"
        original = {"n": 1, "chart": "A", "coords": {"1,1": "6"}}
        state.write_text(json.dumps(original))
        code, _ = run(capsys, "act", "geom-A", str(state), "--i", "1", "--param", "1")
        assert code == 0
        assert json.loads(state.read_text())["coords"]["1,1"] == "6"

    def test_geom_rank_one_division(self, tmp_path, capsys):
        state = tmp_path / "q.json"
        state.write_text(json.dumps({"n": 1, "chart": "A", "coords": {"1,1": "6"}}))
        out_file = tmp_path / "out.json"
        code, _ = run(
            capsys,
            "act", "geom-A", str(state), "--i", "1", "--param", "3", "--out", str(out_file),
        )
        assert code == 0
        assert json.loads(out_file.read_text())["coords"]["1,1"] == "2"

    def test_kind_mismatch(self, tmp_path, capsys):
        state = tmp_path / "q.json"
        state.write_text(json.dumps({"n": 1, "chart": "A", "coords": {"1,1": "6"}}))
        code, out = run(capsys, "act", "geom-a", str(state), "--i", "1", "--param", "2")
        assert code == 2
        assert "error" in out

    def test_zero_parameter_rejected(self, tmp_path, capsys):
        state = tmp_path / "q.json"
        state.write_text(json.dumps({"n": 1, "chart": "A", "coords": {"1,1": "6"}}))
        code, out = run(capsys, "act", "geom-A", str(state), "--i", "1", "--param", "0")
        assert code == 2


    @pytest.mark.parametrize(
        "state, argv",
        [
            ("sharp", ["act", "sharp", "{state}", "--i", "1", "--param", "x"]),
            ("sharp", ["act", "sharp", "{state}", "--i", "3", "--param", "1"]),
            (None, ["act", "sharp", "{state}", "--i", "1", "--param", "1"]),
            ("chart", ["act", "geom-A", "{state}", "--i", "1", "--param", "3+"]),
            ("chart", ["act", "geom-A", "{state}", "--i", "5", "--param", "3"]),
            ("chart", ["act", "geom-A", "{state}", "--i", "1", "--param", "-1"]),
            ("chart", ["act", "geom-A", "{state}", "--i", "1", "--param", "x"]),
            ("negative-chart", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"]),
            ("float-sharp", ["act", "sharp", "{state}", "--i", "1", "--param", "1"]),
            (None, ["trop", "--formula", "gammaA", "--n", "1", "--point", '{{"A[1,1]": 2.7}}']),
            (None, ["trop", "--formula", "alpha_ik", "--n", "2", "--i", "2", "--k", "0",
                    "--point", '{{"A[1,1]": 1, "A[1,2]": 2, "A[2,2]": 0, "z": 1}}']),
            (None, ["trop", "--formula", "gammaA", "--n", "1", "--point", '{{"A[1,1]": true}}']),
            ("bool-sharp", ["act", "sharp", "{state}", "--i", "1", "--param", "1"]),
            ("bool-sharp-rank", ["act", "sharp", "{state}", "--i", "1", "--param", "1"]),
            ("bool-chart-rank", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"]),
            ("nested-expr", ["trop", "--expr-file", "{state}", "--point", '{{"x": 1}}']),
            ("nested-chart", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"]),
        ],
        ids=[
            "non-integer-power", "direction-out-of-range", "missing-state-file", "malformed-param",
            "chart-direction-out-of-range", "negative-param", "symbolic-param",
            "negative-chart-coordinate", "float-sharp-entry", "float-trop-point",
            "mixing-ratio-index-out-of-range", "bool-trop-point", "bool-sharp-entry",
            "bool-sharp-rank", "bool-chart-rank", "nested-parentheses-expr",
            "nested-parentheses-chart-coordinate",
        ],
    )
    def test_bad_input_is_an_error(self, tmp_path, capsys, state, argv):
        path = tmp_path / "state.json"
        if state is not None:
            path.write_text(BAD_STATES[state])
        before = path.read_text() if path.exists() else None
        code, out = run(capsys, *(arg.format(state=path) for arg in argv))
        assert code == 2
        assert out.startswith("error: ")
        assert out.count("\n") == 1 and out.endswith("\n")
        assert (path.read_text() if path.exists() else None) == before


BAD_STATES = {
    "sharp": json.dumps({"n": 2, "B": {"1,2": 2, "1,3": 1, "2,3": 3}}),
    "chart": json.dumps({"n": 1, "chart": "A", "coords": {"1,1": "6"}}),
    "negative-chart": json.dumps({"n": 1, "chart": "A", "coords": {"1,1": "-6"}}),
    "float-sharp": json.dumps({"n": 2, "B": {"1,2": 1.5, "1,3": 1, "2,3": 3}}),
    "bool-sharp": json.dumps({"n": 1, "B": {"1,2": True}}),
    "bool-sharp-rank": json.dumps({"n": True, "B": {"1,2": 0}}),
    "bool-chart-rank": json.dumps({"n": True, "chart": "A", "coords": {"1,1": "6"}}),
    # nested deeper than the recursive-descent parser goes
    "nested-expr": "(" * 300 + "x" + ")" * 300,
    "nested-chart": json.dumps(
        {"n": 1, "chart": "A", "coords": {"1,1": "(" * 300 + "6" + ")" * 300}}
    ),
    "expr": "(x + y) / z\n",
    "sharp-list": json.dumps({"n": 1, "B": [1]}),
    "chart-list": json.dumps({"n": 1, "chart": "A", "coords": [1]}),
    "string": json.dumps("x"),
    "sharp-no-rank": json.dumps({"B": {"1,2": 0}}),
    "not-json": "{not json",
    "sharp-one-index-key": json.dumps({"n": 1, "B": {"1": 1}}),
    "sharp-string-entry": json.dumps({"n": 1, "B": {"1,2": "1"}}),
    "sharp-string-rank": json.dumps({"n": "2", "B": {}}),
    "sharp-non-integer-key": json.dumps({"n": 1, "B": {"1,x": 1}}),
    "chart-number-coordinate": json.dumps({"n": 1, "chart": "A", "coords": {"1,1": 6}}),
    "sharp-rank-zero": json.dumps({"n": 0, "B": {}}),
    "sharp-negative-rank": json.dumps({"n": -2, "B": {}}),
    "chart-rank-zero": json.dumps({"n": 0, "chart": "A", "coords": {}}),
}


class TestErrorMessages:
    """Exact output of bad inputs that each subcommand rejects."""

    @pytest.mark.parametrize(
        "state, argv, expected",
        [
            ("chart", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element (no 'B' field)"),
            ("sharp", ["graph", "{state}", "--radius", "-1", "--out", "{state}.dot"],
             "error: radius must be nonnegative"),
            (None, ["trop", "--formula", "gammaA", "--n", "1", "--point", "{{bad"],
             "error: --point must be a JSON object (Expecting property name enclosed in "
             "double quotes: line 1 column 2 (char 1))"),
            (None, ["trop", "--point", '{{"x": 1}}'], "error: trop needs --formula or --expr-file"),
            (None, ["trop", "--formula", "alpha_ik", "--n", "2", "--i", "2", "--point", "{{}}"],
             "error: alpha_ik needs --i and --k"),
            ("expr", ["trop", "--expr-file", "{state}", "--point", '{{"x": 2}}'],
             "error: point misses coordinates ['y', 'z']"),
            ("sharp-list", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element ('B' is not an object)"),
            ("chart-list", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"],
             "error: state file is not a chart-'A' point ('coords' is not an object)"),
            ("string", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"],
             "error: state file is not a chart-'A' point (not a JSON object)"),
            ("string", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element (not a JSON object)"),
            ("sharp-no-rank", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element (no 'n' field)"),
            ("chart", ["graph", "{state}", "--radius", "1", "--out", "{state}.dot"],
             "error: state file is not a sharp element (no 'B' field)"),
            ("not-json", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file {state} is not JSON (Expecting property name enclosed in "
             "double quotes: line 1 column 2 (char 1))"),
            ("not-json", ["graph", "{state}", "--radius", "1", "--out", "{state}.dot"],
             "error: state file {state} is not JSON (Expecting property name enclosed in "
             "double quotes: line 1 column 2 (char 1))"),
            ("sharp-one-index-key", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element (key '1' is not \"k,j\")"),
            ("sharp-string-entry", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: sharp entry 1,2 = '1' is not an integer"),
            ("sharp-string-rank", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element ('n' is not an integer: '2')"),
            ("sharp-non-integer-key", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: state file is not a sharp element (key '1,x' is not \"k,j\")"),
            ("chart-number-coordinate", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"],
             "error: chart coordinate 1,1 = 6 is not an expression string"),
            (None, ["verify", "all", "--n", "9"],
             "error: every suite is capped below n=9, so 'all' runs no check "
             "(override with a higher cap)"),
            (None, ["verify", "all", "--n", "9", "--json"],
             "error: every suite is capped below n=9, so 'all' runs no check "
             "(override with a higher cap)"),
            (None, ["verify", "all", "--n", "1", "--cap", "0"], "error: cap must be at least 1, got 0"),
            (None, ["verify", "verma", "--n", "2", "--cap", "-5"],
             "error: cap must be at least 1, got -5"),
            (None, ["verify", "verma", "--n", "0"], "error: rank must be at least 1, got 0"),
            ("sharp-rank-zero", ["graph", "{state}", "--radius", "1", "--out", "{state}.dot"],
             "error: rank must be at least 1, got 0"),
            ("sharp-negative-rank", ["graph", "{state}", "--radius", "1", "--out", "{state}.dot"],
             "error: rank must be at least 1, got -2"),
            ("sharp-negative-rank", ["act", "sharp", "{state}", "--i", "1", "--param", "1"],
             "error: rank must be at least 1, got -2"),
            ("chart-rank-zero", ["act", "geom-A", "{state}", "--i", "1", "--param", "3"],
             "error: rank must be at least 1, got 0"),
            (None, ["trop", "--formula", "gammaA", "--n", "0", "--point", "{{}}"],
             "error: rank must be at least 1, got 0"),
            (None, ["trop", "--formula", "xi", "--n", "-1", "--point", "{{}}"],
             "error: rank must be at least 1, got -1"),
            (None, ["trop", "--formula", "alpha_ik", "--n", "2", "--i", "3", "--k", "1",
                    "--point", "{{}}"],
             "error: direction 3 out of range 1..2"),
            (None, ["trop", "--formula", "alpha_ik", "--n", "2", "--i", "0", "--k", "1",
                    "--point", "{{}}"],
             "error: direction 0 out of range 1..2"),
            (None, ["trop", "--formula", "gammaA", "--n", "2", "--point",
                    '{{"A[1,1]": 2.5, "A[1,2]": 1, "A[2,2]": 3}}'],
             "error: coordinate A[1,1] = 2.5 is not an integer"),
            (None, ["trop", "--formula", "gammaA", "--n", "2", "--point",
                    '{{"A[1,1]": 2, "A[1,2]": true, "A[2,2]": 3}}'],
             "error: coordinate A[1,2] = True is not an integer"),
        ],
        ids=[
            "act-sharp-on-chart-state", "graph-negative-radius", "trop-point-not-json",
            "trop-without-formula", "trop-alpha-without-k", "trop-missing-coordinates",
            "act-sharp-entries-not-object", "act-chart-coords-not-object",
            "act-chart-state-not-object", "act-sharp-state-not-object", "act-sharp-without-rank",
            "graph-on-chart-state", "act-state-not-json", "graph-root-not-json",
            "act-sharp-one-index-key", "act-sharp-string-entry", "act-sharp-string-rank",
            "act-sharp-non-integer-key", "act-chart-number-coordinate",
            "verify-all-above-every-cap", "verify-all-above-every-cap-json",
            "verify-cap-zero", "verify-negative-cap", "verify-rank-zero",
            "graph-rank-zero", "graph-negative-rank", "act-sharp-negative-rank",
            "act-chart-rank-zero", "trop-gamma-rank-zero", "trop-xi-negative-rank",
            "trop-alpha-direction-above-rank", "trop-alpha-direction-zero",
            "trop-point-float-coordinate", "trop-point-bool-coordinate",
        ],
    )
    def test_error_message(self, tmp_path, capsys, state, argv, expected):
        path = tmp_path / "state.json"
        if state is not None:
            path.write_text(BAD_STATES[state])
        before = path.read_text() if path.exists() else None
        code, out = run(capsys, *(arg.format(state=path) for arg in argv))
        assert (code, out) == (2, expected.format(state=path) + "\n")
        assert (path.read_text() if path.exists() else None) == before
        assert not (tmp_path / "state.json.dot").exists()


class TestGraph:
    def _root(self, tmp_path):
        state = tmp_path / "root.json"
        state.write_text(json.dumps({"n": 1, "B": {"1,2": 0}}))
        return state

    def test_rank_one_path(self, tmp_path, capsys):
        state = self._root(tmp_path)
        out = tmp_path / "g.dot"
        code, text = run(capsys, "graph", str(state), "--radius", "2", "--out", str(out))
        assert code == 0
        assert "5 nodes" in text
        dot = out.read_text()
        assert dot.startswith("digraph")
        assert dot.count("->") == 8  # 4 undirected steps, both directions

    def test_radius_zero(self, tmp_path, capsys):
        state = self._root(tmp_path)
        out = tmp_path / "g.dot"
        code, text = run(capsys, "graph", str(state), "--radius", "0", "--out", str(out))
        assert code == 0
        assert "1 nodes" in text

    def test_deterministic(self, tmp_path, capsys):
        state = self._root(tmp_path)
        out1, out2 = tmp_path / "g1.dot", tmp_path / "g2.dot"
        run(capsys, "graph", str(state), "--radius", "2", "--out", str(out1))
        run(capsys, "graph", str(state), "--radius", "2", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_radius_cap(self, tmp_path, capsys):
        state = self._root(tmp_path)
        code, out = run(
            capsys, "graph", str(state), "--radius", "9", "--out", str(tmp_path / "g.dot")
        )
        assert code == 2
        assert "cap" in out


class TestTrop:
    def test_alpha_rank_one_is_z(self, capsys):
        code, out = run(
            capsys,
            "trop", "--formula", "alpha_ik", "--n", "1", "--i", "1", "--k", "1",
            "--point", '{"A[1,1]": 17, "z": 1}',
        )
        assert code == 0
        assert "= 1" in out

    def test_gamma_weivector(self, capsys):
        code, out = run(
            capsys,
            "trop", "--formula", "gammaA", "--n", "2", "--json",
            "--point", '{"A[1,1]": 2, "A[1,2]": 1, "A[2,2]": 3}',
        )
        assert code == 0
        assert json.loads(out) == {"w1": -3, "w2": -4}

    def test_xi_round_trip(self, capsys):
        point = {"a[1,1]": 2, "a[1,2]": -1, "a[2,2]": 5}
        code, out = run(
            capsys, "trop", "--formula", "xi", "--n", "2", "--json",
            "--point", json.dumps(point),
        )
        assert code == 0
        image = json.loads(out)
        back_point = {f"A[{key}]": val for key, val in image.items()}
        code, out = run(
            capsys, "trop", "--formula", "xi_inv", "--n", "2", "--json",
            "--point", json.dumps(back_point),
        )
        assert code == 0
        assert json.loads(out) == {key[2:-1]: val for key, val in point.items()}

    def test_expr_file(self, tmp_path, capsys):
        f = tmp_path / "expr.txt"
        f.write_text("(x + y) / z\n")
        code, out = run(
            capsys, "trop", "--expr-file", str(f),
            "--point", '{"x": 2, "y": 0, "z": 1}',
        )
        assert code == 0
        assert "expr = 1" in out

    def test_long_quotient_chain(self, tmp_path, capsys):
        """x divided by x 1,500 times is read without recursion."""
        f = tmp_path / "expr.txt"
        f.write_text("/".join(["x"] * 1501))
        code, out = run(capsys, "trop", "--expr-file", str(f), "--point", '{"x": 1}')
        assert (code, out) == (0, "expr = -1499\n")
        assert ud.degree_oracle(parse(f.read_text()), {"x": 1}) == -1499

    def test_not_positive(self, tmp_path, capsys):
        f = tmp_path / "expr.txt"
        f.write_text("x - y\n")
        code, out = run(capsys, "trop", "--expr-file", str(f), "--point", '{"x": 1, "y": 1}')
        assert code == 2
        assert "error" in out

    @pytest.mark.parametrize("point", ['[1, 2]', '"A[1,1]"', '3'], ids=["list", "string", "number"])
    def test_point_not_an_object(self, capsys, point):
        code, out = run(capsys, "trop", "--formula", "gammaA", "--n", "1", "--point", point)
        assert code == 2
        assert out == "error: --point must be a JSON object\n"

    def test_missing_coordinate(self, capsys):
        code, out = run(
            capsys,
            "trop", "--formula", "alpha_ik", "--n", "1", "--i", "1", "--k", "1",
            "--point", '{"z": 1}',
        )
        assert code == 2
        assert "misses" in out


class TestProcess:
    """The module run as a program: ``python -m geomcrystal.cli``."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.SRC), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "geomcrystal.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_bad_input_exits_two(self):
        proc = self._run("trop", "--formula", "gammaA", "--n", "1", "--point", "{bad")
        assert proc.returncode == 2
        assert proc.stdout.startswith("error: ") and proc.stdout.count("\n") == 1
        assert proc.stderr == ""

    def test_holding_suite_exits_zero(self):
        proc = self._run("verify", "verma", "--n", "2")
        assert proc.returncode == 0
        assert "2/2 checks hold" in proc.stdout
