from itertools import product

import pytest
from hypothesis import given, settings

import strategies as sts
from brandt_omega.brandt import BrandtElem, brandt_invert, brandt_multiply, fiber, restricted_universe
from brandt_omega.core import ZERO
from brandt_omega.equations import (
    FiniteSolutions,
    InfiniteZeroCase,
    brute_force_solutions,
    solve_left,
    solve_right,
)
from brandt_omega.errors import InvalidElementError
from brandt_omega.families import parse_family


class TestSolveLeft:
    def test_example(self, fam013):
        got = solve_left(BrandtElem(2, 1, 4), BrandtElem(2, 1, 5), fam013)
        assert got == FiniteSolutions((BrandtElem(4, 1, 5), BrandtElem(4, 3, 5)))

    def test_value_condition(self, fam013):
        got = solve_left(BrandtElem(2, 0, 4), BrandtElem(2, 1, 5), fam013)
        assert got == FiniteSolutions(())

    def test_row_condition(self, fam013):
        got = solve_left(BrandtElem(2, 1, 4), BrandtElem(3, 1, 5), fam013)
        assert got == FiniteSolutions(())

    def test_zero_rhs(self, fam013):
        got = solve_left(BrandtElem(2, 1, 4), ZERO, fam013)
        assert isinstance(got, InfiniteZeroCase)
        assert "row(X) != 4" in got.description
        got = solve_left(ZERO, ZERO, fam013)
        assert isinstance(got, InfiniteZeroCase)

    def test_zero_lhs_nonzero_rhs(self, fam013):
        assert solve_left(ZERO, BrandtElem(2, 1, 5), fam013) == FiniteSolutions(())

    def test_rejects_unrestricted(self, fam013):
        with pytest.raises(InvalidElementError):
            solve_left(BrandtElem(0, 3, 0), BrandtElem(2, 1, 5), fam013)


class TestSolveRight:
    def test_example(self, fam013):
        got = solve_right(BrandtElem(4, 1, 2), BrandtElem(5, 1, 2), fam013)
        assert got == FiniteSolutions((BrandtElem(5, 1, 4), BrandtElem(5, 3, 4)))

    def test_value_condition(self, fam013):
        got = solve_right(BrandtElem(4, 0, 2), BrandtElem(5, 1, 2), fam013)
        assert got == FiniteSolutions(())

    def test_zero_rhs(self, fam013):
        got = solve_right(BrandtElem(2, 1, 4), ZERO, fam013)
        assert isinstance(got, InfiniteZeroCase)
        assert "col(X) != 2" in got.description


class TestBruteForceAgreement:
    def test_matches_on_example(self, fam013):
        A, B = BrandtElem(2, 1, 4), BrandtElem(2, 1, 5)
        assert brute_force_solutions(A, B, "left", 10, fam013) == [
            BrandtElem(4, 1, 5), BrandtElem(4, 3, 5),
        ]

    def test_rejects_zero_rhs_and_bad_side(self, fam013):
        with pytest.raises(InvalidElementError):
            brute_force_solutions(BrandtElem(2, 1, 4), ZERO, "left", 5, fam013)
        with pytest.raises(InvalidElementError):
            brute_force_solutions(BrandtElem(2, 1, 4), BrandtElem(2, 1, 5), "up", 5, fam013)

    def test_sweep_agreement(self, fam013):
        # every nonzero pair with coordinates <= 3; oracle bound is complete
        univ = [e for e in restricted_universe(fam013, 3) if e is not ZERO]
        top = 3 + 3
        for A, B in product(univ, repeat=2):
            left = solve_left(A, B, fam013)
            right = solve_right(A, B, fam013)
            assert list(left.solutions) == brute_force_solutions(A, B, "left", top, fam013)
            assert list(right.solutions) == brute_force_solutions(A, B, "right", top, fam013)

    def test_each_call_builds_its_own_window(self, window_builds):
        # the cached window behind restricted_universe is warm for (f, 25),
        # yet every oracle call still builds the window itself
        f = parse_family("0,2,+7")
        univ = restricted_universe(f, 25)
        assert window_builds == [(f, 25)]
        A, B = BrandtElem(9, 2, 14), BrandtElem(9, 2, 20)
        sides = [("left", solve_left), ("right", solve_right), ("left", solve_left)]
        for n, (side, solve) in enumerate(sides, 1):
            assert brute_force_solutions(A, B, side, 25, f) == list(solve(A, B, f).solutions)
            assert window_builds == [(f, 25)] * (n + 1)
        assert restricted_universe(f, 25) == univ and len(window_builds) == 4

    def test_solutions_inside_stated_fiber(self, fam013):
        univ = [e for e in restricted_universe(fam013, 3) if e is not ZERO]
        for A, B in product(univ, repeat=2):
            for X in solve_left(A, B, fam013).solutions:
                assert X in fiber(A.col, B.col, fam013)
            for X in solve_right(A, B, fam013).solutions:
                assert X in fiber(B.row, A.row, fam013)

    @given(sts.fam_and_brandt(n=2, span=6, allow_zero=False))
    @settings(max_examples=50)
    def test_inversion_duality(self, fe):
        fam, (A, B) = fe
        got = solve_left(A, B, fam)
        for X in got.solutions:
            assert brandt_multiply(A, X) == B
            mirrored = solve_right(brandt_invert(A), brandt_invert(B), fam)
            assert brandt_invert(X) in mirrored.solutions
