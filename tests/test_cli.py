import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brandt_omega.brandt import BRANDT, BrandtElem, parse_brandt
from brandt_omega.cli import _report, main, parse_brandt_list, parse_nbhd
from brandt_omega.core import ATOMS, ZERO, AtomElem, _mul, parse_elem
from brandt_omega.errors import ParseError
from brandt_omega.families import parse_support
from brandt_omega.report import VerificationReport
from brandt_omega.topology import AcNbhd, Tau1Nbhd
from brandt_omega.verification import BoundedUniverse, check_associativity


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMul:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "mul", "--family", "0,1,3", "(0,1,3)", "(3,0,1)")
        assert code == 0 and out == "(2,0,1)\n"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "mul", "--family", "0,1,3", "0", "(1,1,0)")
        assert code == 0 and out == "0\n"

    def test_brandt(self, capsys):
        code, out, _ = run(capsys, "mul", "--family", "0,1,3", "--brandt", "(2;1;4)", "(4;3;5)")
        assert code == 0 and out == "(2;1;5)\n"

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "mul", "--family", "0,1,3", "(1,2", "(1,1,0)")
        assert code == 2 and "error" in err

    def test_semantic_error_exit_3(self, capsys):
        code, _, err = run(capsys, "mul", "--family", "0,1,3", "(1,1,2)", "(1,1,0)")
        assert code == 3 and "error" in err

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "mul", "--family", "0,1,3", "--output", "json",
                           "(0,1,3)", "(3,0,1)")
        assert code == 0 and json.loads(out) == {"i": 2, "j": 0, "k": 1}

    def test_dot_only_for_census(self):
        with pytest.raises(SystemExit) as exc:
            main(["mul", "--family", "0,1,3", "--output", "dot", "0", "0"])
        assert exc.value.code == 2


class TestSolve:
    def test_left(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "0,1,3", "--left", "(2;1;4)", "(2;1;5)")
        assert code == 0 and out == "(4;1;5)\n(4;3;5)\n"

    def test_right(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "0,1,3", "--right", "(4;1;2)", "(5;1;2)")
        assert code == 0 and out == "(5;1;4)\n(5;3;4)\n"

    def test_infinite(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "0,1,3", "--left", "(2;1;4)", "O")
        assert code == 0 and out.startswith("infinite:") and "row(X) != 4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "solve", "--family", "0,1,3", "--output", "json",
                           "--left", "(2;1;4)", "(2;1;5)")
        assert json.loads(out) == {
            "solutions": [
                {"row": 4, "val": 1, "col": 5},
                {"row": 4, "val": 3, "col": 5},
            ]
        }


class TestChainCensus:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "chain", "--family", "0,1,3", "(0,0,3)")
        assert code == 0 and out == "(0,0,3) (2,2,1) (3,3,0) 0\n"

    def test_census_lines(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "0,1", "--bound", "1")
        assert code == 0 and out == "2 2\n3 2\n"

    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "0,1", "--bound", "1",
                           "--output", "json")
        assert json.loads(out) == {"2": 2, "3": 2}

    def test_census_dot(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "0,1,3", "--bound", "3",
                           "--output", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"(3,3,0)" -> "(2,2,1)";' in out
        assert '"0" -> "(0,0,0)";' in out

    def test_env_var_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("BRANDT_OMEGA_BOUND", "0")
        code, out, _ = run(capsys, "census", "--family", "0,1,3")
        assert code == 0 and out == "2 1\n3 1\n4 1\n"

    def test_env_var_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("BRANDT_OMEGA_BOUND", "nope")
        code, _, err = run(capsys, "census", "--family", "0,1,3")
        assert code == 2 and "BRANDT_OMEGA_BOUND" in err


class TestQueries:
    def test_iso(self, capsys):
        code, out, _ = run(capsys, "iso", "--family", "0,1,3", "--other", "2,3,5")
        assert code == 0 and out == "n=-2\n"
        code, out, _ = run(capsys, "iso", "--family", "0,1,3", "--other", "0,2,3")
        assert code == 0 and out == "not-isomorphic\n"

    def test_order(self, capsys):
        code, out, _ = run(capsys, "order", "--family", "0,1,3", "(3,2,1)", "(1,0,3)")
        assert code == 0 and out == "true\n"
        code, out, _ = run(capsys, "order", "--family", "0,1,3", "(3,4,1)", "(3,4,3)")
        assert code == 0 and out == "false\n"

    def test_fiber(self, capsys):
        code, out, _ = run(capsys, "fiber", "--family", "0,1,3", "2", "5")
        assert code == 0 and out == "(2;0;5)\n(2;1;5)\n"

    def test_embed_both_ways(self, capsys):
        code, out, _ = run(capsys, "embed", "--family", "0,1,3", "(2,0,1)")
        assert code == 0 and out == "(3;1;1)\n"
        code, out, _ = run(capsys, "embed", "--family", "0,1,3", "--inverse", "(3;1;1)")
        assert code == 0 and out == "(2,0,1)\n"

    def test_embed_inverse_rejects(self, capsys):
        code, _, err = run(capsys, "embed", "--family", "0,1,3,5", "--inverse", "(3;5;5)")
        assert code == 3 and "error" in err


class TestTopo:
    def test_ac_check(self, capsys):
        code, out, _ = run(capsys, "topo", "ac-check", "--family", "0,1,3",
                           "--nbhd", "ac:(2,5)", "--elem", "(3;1;4)", "--bound", "12")
        assert code == 0
        assert "shift-continuity: pass" in out and "inversion: pass" in out

    def test_t1_check(self, capsys):
        code, out, _ = run(capsys, "topo", "t1-check", "--family", "0,1,3",
                           "--n", "3", "--bound", "10")
        assert code == 0 and "t1-continuity: pass" in out
        code, out, _ = run(capsys, "topo", "t1-check", "--family", "0,1,3",
                           "--n", "3", "--elem", "(2;1;4)", "--bound", "10")
        assert code == 0

    def test_t1_check_elem_failure_exits_1(self, capsys, monkeypatch):
        # a seeded product sends (5;0;6)*(2;1;4) to (5;0;6), which is not the zero
        from brandt_omega import topology

        x, e = BrandtElem(2, 1, 4), BrandtElem(5, 0, 6)
        true_mul = topology.brandt_multiply
        monkeypatch.setattr(topology, "brandt_multiply",
                            lambda a, b: e if (a, b) == (e, x) else true_mul(a, b))
        code, out, _ = run(capsys, "topo", "t1-check", "--family", "0,1,3",
                           "--n", "3", "--elem", "(2;1;4)", "--bound", "10")
        assert code == 1
        assert out == ("t1-continuity: fail (counterexample=(2;1;4) (5;0;6) (5;0;6); "
                       "note=translate by U_5 member is nonzero)\n")

    def test_prop49(self, capsys):
        code, out, _ = run(capsys, "topo", "prop49", "--family", "0,1,3",
                           "--nbhd", "t1:1", "--m", "(5;0;5)", "--bound", "20")
        assert code == 1 and out == "false\n"

    def test_prop49_non_idempotent_named_as_typed(self, capsys):
        code, out, err = run(capsys, "topo", "prop49", "--family", "0,1,3",
                             "--nbhd", "t1:0", "--m", "(1;1;2)")
        assert code == 3 and out == ""
        assert err == "error: non-idempotent in M: (1;1;2)\n"

    def test_witness(self, capsys):
        code, out, _ = run(capsys, "topo", "witness", "--family", "0,1,3",
                           "--a", "(2;1;4)", "--d", "(5;0;6),(4;1;7)")
        assert code == 0 and out == "(5;0;6)\n"
        code, out, _ = run(capsys, "topo", "witness", "--family", "0,1,3",
                           "--a", "(2;1;4)", "--d", "(4;0;2)")
        assert code == 1 and out == "none\n"

    # the golden corpus holds an a outside the family
    @pytest.mark.parametrize("d, bad", [
        ("(5;0;6),(4;9;7)", "(4;9;7)"),  # (5;0;6) alone would be a witness
        ("(1;2;7)", "(1;2;7)"),  # val above row
    ])
    def test_witness_rejects_candidates_outside_the_family(self, capsys, d, bad):
        code, out, err = run(capsys, "topo", "witness", "--family", "0,1,3",
                             "--a", "(2;1;4)", "--d", d)
        assert (code, out) == (3, "")
        assert err == f"error: {bad} is not in the restricted subsemigroup\n"


class TestVerify:
    def test_five_pass_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "0,1,3", "--bound", "3")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(": pass (checked=" in line for line in lines)
        assert lines[0].startswith("associativity:")

    def test_degenerate_support(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "0", "--bound", "3")
        assert code == 0 and out.count("pass") == 5

    def test_bound_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "0,1,3", "--bound", "0")
        assert code == 0 and out.count("pass") == 5

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "0", "--bound", "2",
                           "--output", "json")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert [r["name"] for r in reports] == [
            "associativity", "inverse-axioms", "order-equivalence",
            "embedding-homomorphism", "restricted-closure",
        ]
        assert all(r["passed"] for r in reports)

    def test_zero_only_window_is_named(self, capsys):
        # support {5} has no atom up to bound 2: both windows hold only the zero
        code, out, _ = run(capsys, "verify", "--family", "5", "--bound", "2")
        assert code == 0
        assert out == ("note: window holds only the zero: no atom <= 2\n"
                       "associativity: pass (checked=1)\n"
                       "inverse-axioms: pass (checked=2)\n"
                       "order-equivalence: pass (checked=1)\n"
                       "embedding-homomorphism: pass (checked=1)\n"
                       "restricted-closure: pass (checked=1)\n")

    def test_zero_only_window_is_named_in_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "5", "--bound", "2", "--output", "json")
        assert code == 0
        reports = [json.loads(line) for line in out.strip().split("\n")]
        assert [(r["passed"], r["checked"], r["note"]) for r in reports] == [
            (True, 1, "1 elements, bound=2; window holds only the zero: no atom <= 2"),
            (True, 2, "1 elements, 1 idempotents; window holds only the zero: no atom <= 2"),
            (True, 1, "bound=2; window holds only the zero: no atom <= 2"),
            (True, 1, "injective homomorphism on 1 elements; "
                      "window holds only the zero: no atom <= 2"),
            (True, 1, "closed under products on 1 elements; "
                      "window holds only the zero: no atom <= 2"),
        ]

    def test_window_with_an_atom_has_no_note(self, capsys):
        # support {5} at bound 5 holds (i, j, 5) for i, j <= 5
        code, out, _ = run(capsys, "verify", "--family", "5", "--bound", "5")
        assert code == 0 and "note" not in out and out.count("pass") == 5

    @pytest.mark.parametrize("kind, counterexample, output, lines", [
        (BRANDT, (BrandtElem(1, 0, 2), ZERO), "text", [
            "inversion: fail (counterexample=(1;0;2) O; note=x)",
            "inversion: pass (checked=1)"]),
        (ATOMS, (AtomElem(1, 0, 2), ZERO), "text", [
            "inversion: fail (counterexample=(1,0,2) 0; note=x)",
            "inversion: pass (checked=1)"]),
        (ATOMS, (ZERO, AtomElem(1, 2, 0)), "json", [
            '{"checked": 5, "counterexample": [{"zero": true}, {"i": 1, "j": 2, "k": 0}], '
            '"name": "inversion", "note": "x", "passed": false}',
            '{"checked": 1, "counterexample": null, "name": "inversion", "note": "", '
            '"passed": true}']),
    ], ids=["brandt", "atoms", "json"])
    def test_failing_report_in_kind_notation(self, capsys, kind, counterexample, output, lines):
        # no CLI input reaches a failing line with the true product, so the
        # report helper is called directly; a passing report follows it
        args = argparse.Namespace(output=output)
        assert _report(args, "inversion", VerificationReport(False, 5, counterexample, note="x"),
                       kind) is False
        assert _report(args, "inversion", VerificationReport(True, 1), kind) is True
        assert capsys.readouterr().out.splitlines() == lines


ROOT = Path(__file__).resolve().parent.parent


def _src_env():
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def run_script(name, *args):
    """Run scripts/<name> in a fresh interpreter that imports the package from src."""
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=_src_env())


def read_one_line_then_close(*argv):
    """Run argv with stdout on a pipe, read one line, close the pipe and wait;
    return the line, the exit code and stderr."""
    with subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=_src_env()) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        return line, proc.wait(), err


class TestClosedStdout:
    """A reader that closes stdout early stops the tool as SIGPIPE would:
    exit 141 (128 + 13) and no traceback.  Each command prints far more than
    a pipe buffer holds, so the write after the close must fail."""

    def test_cli(self):
        line, code, err = read_one_line_then_close(
            "-m", "brandt_omega", "fiber", "--family", "+0", "20000", "20000")
        assert line == "(20000;0;20000)\n"
        assert code == 141 and "Traceback" not in err

    def test_cli_with_output_left_to_flush(self):
        # the reader is gone before the tool starts, so the final flush fails
        r, w = os.pipe()
        os.close(r)
        with os.fdopen(w, "wb") as out:
            done = subprocess.run(
                [sys.executable, "-m", "brandt_omega", "mul", "--family", "0,1,3",
                 "(0,1,3)", "(3,0,1)"], stdout=out, stderr=subprocess.PIPE, text=True,
                env=_src_env())
        assert done.returncode == 141 and done.stderr == ""

    def test_script(self):
        # 60 bounds of 1: 25 rows each, about 100 KB
        line, code, err = read_one_line_then_close(
            str(ROOT / "scripts" / "verify_sweep.py"), *["1"] * 60)
        assert line.split() == ["support", "bound", "check", "checked", "time"]
        assert code == 141 and "Traceback" not in err


class TestVerifySweepScript:
    @pytest.mark.parametrize("bound", ["-1", "x"])
    def test_bad_bound_is_a_usage_error(self, bound):
        done = run_script("verify_sweep.py", bound)
        assert done.returncode == 2 and done.stdout == ""
        assert "usage:" in done.stderr and "Traceback" not in done.stderr

    def test_passing_run_exits_0(self):
        done = run_script("verify_sweep.py", "1")
        assert done.returncode == 0 and done.stderr == ""
        rows = done.stdout.splitlines()[1:]
        assert len(rows) == 25 and all(row.endswith("ms  ok") for row in rows)

    def test_failing_sweep_exits_1(self, capsys, monkeypatch):
        spec = importlib.util.spec_from_file_location("verify_sweep",
                                                      ROOT / "scripts" / "verify_sweep.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        name, _run, kind = script.VERIFY_CHECKS[0]

        def corrupted(a, b):
            # flips the atom carried by the strict left case
            r = _mul(a, b)
            if r is not ZERO and a is not ZERO and b is not ZERO and a.j < b.i:
                return AtomElem(r.i, r.j, a.k)
            return r

        bad = (name, lambda f, b: check_associativity(BoundedUniverse.atoms(f, b), corrupted), kind)
        monkeypatch.setattr(script, "VERIFY_CHECKS", (bad, *script.VERIFY_CHECKS[1:]))
        monkeypatch.setattr(sys, "argv", ["verify_sweep.py", "1"])
        assert script.main() == 1
        out = capsys.readouterr().out
        assert "associativity" in out and "FAIL" in out


class TestBoundary:
    @pytest.mark.parametrize("argv, bound_env", [
        (["mul", "--family", "0", "(²,0,0)", "0"], None),
        (["iso", "--family", "²", "--other", "0"], None),
        (["census", "--family", "0,1,3"], "³"),
    ])
    def test_non_ascii_digits_exit_2(self, capsys, monkeypatch, argv, bound_env):
        if bound_env is not None:
            monkeypatch.setenv("BRANDT_OMEGA_BOUND", bound_env)
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "0,1,3", "--bound", "-1"],
        ["topo", "prop49", "--family", "0,1,3", "--nbhd", "t1:1", "--m", "(5;0;5)", "--bound", "-3"],
        ["fiber", "--family", "0", "-1", "2"],
        ["topo", "t1-check", "--family", "0,1,3", "--n", "-1"],
    ])
    def test_negative_bound_or_coordinate_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid natural value" in capsys.readouterr().err

    LONG = "1" * 5000  # past int()'s default limit of 4300 digits

    @pytest.mark.parametrize("argv, bound_env", [
        (["mul", "--family", "0", f"({LONG},0,0)", "0"], None),
        (["mul", "--family", "0", "--brandt", f"({LONG};0;0)", "O"], None),
        (["iso", "--family", f"0,{LONG}", "--other", "0"], None),
        (["census", "--family", "0,1,3"], LONG),
        (["topo", "prop49", "--family", "0", "--nbhd", f"ac:({LONG},0)", "--m", "O"], None),
    ], ids=["mul", "mul-brandt", "family", "bound-env", "ac-nbhd"])
    def test_overlong_natural_exit_2(self, capsys, monkeypatch, argv, bound_env):
        if bound_env is not None:
            monkeypatch.setenv("BRANDT_OMEGA_BOUND", bound_env)
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    NINES = "9" * 4300  # int()'s default limit; a sum of two such would print 4,301 digits

    @pytest.mark.parametrize("argv", [
        ["embed", "--family", f"0,+{NINES}", f"({NINES},0,{NINES})"],
        ["mul", "--family", f"0,+{NINES}", f"({NINES},0,{NINES})", f"({NINES},0,0)"],
    ], ids=["embed", "mul"])
    def test_natural_at_digit_limit_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error: bad support")
        assert "Traceback" not in err

    def test_largest_naturals_still_print(self, capsys):
        n = "9" * 4299
        code, out, _ = run(capsys, "embed", "--family", f"0,+{n}", f"({n},0,{n})")
        assert code == 0 and out == f"({int(n) * 2};{n};{n})\n"

    def test_overlong_bound_argument_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "0", "--bound", self.LONG])
        assert exc.value.code == 2
        assert "invalid natural value" in capsys.readouterr().err


class TestParsers:
    @given(st.text() | st.text(alphabet="0123456789,;+()Oact:² "))
    def test_parsers_return_or_raise_parse_error(self, text):
        for parse in (parse_support, parse_elem, parse_brandt, parse_nbhd, parse_brandt_list):
            try:
                parse(text)
            except ParseError:
                pass

    def test_parse_nbhd(self):
        assert parse_nbhd("ac:(2,5)(3,4)") == AcNbhd(frozenset({(2, 5), (3, 4)}))
        assert parse_nbhd("ac:") == AcNbhd(frozenset())
        assert parse_nbhd("t1:7") == Tau1Nbhd(7)
        for bad in ["ac:(2,5", "t1:", "x:3", "ac:(2;5)", "t1:²", "ac:(²,5)"]:
            with pytest.raises(ParseError):
                parse_nbhd(bad)

    def test_parse_brandt_list(self):
        got = parse_brandt_list("(5;0;6),(4;1;7)")
        assert [str(type(e).__name__) for e in got] == ["BrandtElem", "BrandtElem"]
        with pytest.raises(ParseError):
            parse_brandt_list("(5;0;6),,(4;1;7)")
        with pytest.raises(ParseError):
            parse_brandt_list("")
