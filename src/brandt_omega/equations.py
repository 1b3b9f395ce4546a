"""Solvers for A*X = B and X*A = B in the restricted Brandt subsemigroup.

For B nonzero the solution set is finite and sits inside a single fiber;
the solvers enumerate that fiber.  For B zero the solution set is
cofinite and is returned as a symbolic predicate instead.
"""

from __future__ import annotations

from collections import namedtuple

from .brandt import (
    BrandtElem,
    BrElem,
    brandt_invert,
    brandt_multiply,
    fiber,
    validate_restricted,
    window,
)
from .core import ZERO
from .errors import InvalidElementError
from .families import AtomicFamily


FiniteSolutions = namedtuple("FiniteSolutions", "solutions")
# Cofinite solution set of an equation with zero right-hand side.
InfiniteZeroCase = namedtuple("InfiniteZeroCase", "description")

SolutionSet = FiniteSolutions | InfiniteZeroCase


def solve_left(A: BrElem, B: BrElem, f: AtomicFamily) -> SolutionSet:
    """All X with A*X = B.

    Nonzero B: solutions exist only when rows match and val(B) <= val(A),
    and all lie in the fiber over (col(A), col(B)).
    """
    validate_restricted(A, f)
    validate_restricted(B, f)
    if B is ZERO:
        if A is ZERO:
            return InfiniteZeroCase("every X solves O*X = O")
        return InfiniteZeroCase(f"X = O or row(X) != {A.col}")
    if A is ZERO or A.row != B.row or B.val > A.val:
        return FiniteSolutions(())
    sols = tuple(X for X in fiber(A.col, B.col, f) if brandt_multiply(A, X) == B)
    return FiniteSolutions(sols)


def solve_right(A: BrElem, B: BrElem, f: AtomicFamily) -> SolutionSet:
    """All X with X*A = B: X*A = B iff A^-1*X^-1 = B^-1, so these are the
    inverses of the solutions of solve_left, in the same order by value."""
    validate_restricted(A, f)
    validate_restricted(B, f)
    if B is ZERO:
        if A is ZERO:
            return InfiniteZeroCase("every X solves X*O = O")
        return InfiniteZeroCase(f"X = O or col(X) != {A.row}")
    mirrored = solve_left(brandt_invert(A), brandt_invert(B), f)
    return FiniteSolutions(tuple(map(brandt_invert, mirrored.solutions)))


def brute_force_solutions(
    A: BrElem, B: BrElem, side: str, bound: int, f: AtomicFamily
) -> list[BrandtElem]:
    """Oracle: scan every restricted element with coordinates <= bound.

    Complete whenever bound >= max of the four equation coordinates plus
    the largest relevant support element, since solutions live in a fiber
    at known coordinates.  Each call scans a fresh `brandt.window` as it is
    generated, never the cached window behind `restricted_universe`, so the
    oracle shares no state with the library it checks; it keeps only the
    solutions, not the window or the products.
    """
    if side not in ("left", "right"):
        raise InvalidElementError(f"side must be 'left' or 'right', got {side!r}")
    if B is ZERO:
        raise InvalidElementError("the brute-force oracle covers nonzero right-hand sides only")
    validate_restricted(A, f)
    validate_restricted(B, f)
    # the window is sorted and nonzero; the zero never solves
    if side == "left":
        return [X for X in window(f, bound) if brandt_multiply(A, X) == B]
    return [X for X in window(f, bound) if brandt_multiply(X, A) == B]
