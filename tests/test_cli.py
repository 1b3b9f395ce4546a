import argparse
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
from brandt_omega.core import ATOMS, ZERO, AtomElem, parse_elem
from brandt_omega.errors import ParseError
from brandt_omega.families import parse_support
from brandt_omega.report import VerificationReport
from brandt_omega.topology import AcNbhd, Tau1Nbhd


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

    @pytest.mark.parametrize("kind, counterexample, text", [
        (BRANDT, (BrandtElem(1, 0, 2), ZERO), "(1;0;2) O"),
        (ATOMS, (AtomElem(1, 0, 2), ZERO), "(1,0,2) 0"),
    ], ids=["brandt", "atoms"])
    def test_failing_report_in_kind_notation(self, capsys, kind, counterexample, text):
        # no CLI input reaches a failing line with the true product, so the
        # report helper is called directly
        report = VerificationReport(False, 5, counterexample, note="x")
        assert _report(argparse.Namespace(output="text"), "inversion", report, kind) is False
        assert capsys.readouterr().out == f"inversion: fail (counterexample={text}; note=x)\n"


ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    """Run scripts/<name> in a fresh interpreter that imports the package from src."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)


class TestVerifySweepScript:
    @pytest.mark.parametrize("bound", ["-1", "x"])
    def test_bad_bound_is_a_usage_error(self, bound):
        done = run_script("verify_sweep.py", bound)
        assert done.returncode == 2 and done.stdout == ""
        assert "usage:" in done.stderr and "Traceback" not in done.stderr


class TestChainGalleryScript:
    @pytest.mark.parametrize("support", ["x", "0,1,3 3,+2"])
    def test_bad_support_is_a_usage_error(self, support):
        done = run_script("chain_gallery.py", *support.split())
        assert done.returncode == 2 and done.stdout == ""
        assert "usage:" in done.stderr and "Traceback" not in done.stderr

    def test_default_run(self):
        done = run_script("chain_gallery.py")
        assert done.returncode == 0 and done.stderr == ""
        assert "== support 0,1,3 ==" in done.stdout
        assert "(0,0,3) > (2,2,1) > (3,3,0) > 0" in done.stdout


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
