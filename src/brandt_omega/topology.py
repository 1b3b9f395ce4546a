"""Finite-bound models of two zero-neighborhood bases and their checks.

Open sets around the zero answer `e in u` and list their members up to a
bound: the compactification-style base removes finitely many fibers, the
threshold base keeps only fibers with n <= row < col.  All continuity
statements are verified by exhaustive sweeps up to a caller-chosen bound;
that is the honest computable surrogate for the cofinite sets involved.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import chain, filterfalse, product, repeat, tee
from operator import is_

from .brandt import (
    BrElem,
    _new,
    brandt_invert,
    brandt_is_idempotent,
    brandt_multiply,
    fiber,
    format_brandt,
    restricted_universe,
    validate_restricted,
    window,
)
from .core import ZERO
from .errors import InvalidElementError
from .families import AtomicFamily, _Checked, _is_natural, _natural_bound, is_natural
from .report import VerificationReport, _gc_paused, check_closed


class AcNbhd(_Checked, namedtuple("AcNbhd", "excluded")):
    """Everything except the fibers over finitely many (row, col) pairs."""

    __slots__ = ()

    def __new__(cls, excluded) -> AcNbhd:
        excluded = frozenset(excluded)
        if not all(type(p) is tuple and len(p) == 2 and _is_natural(p[0]) and _is_natural(p[1])
                   for p in excluded):
            raise InvalidElementError("excluded pairs must be naturals")
        return super().__new__(cls, excluded)

    def __contains__(self, e: BrElem) -> bool:
        return e is ZERO or (e.row, e.col) not in self.excluded

    def _gone(self, f: AtomicFamily, bound: int) -> set[BrElem]:
        """The excluded fibers' elements with row, col <= bound."""
        return {e for r, c in self.excluded if max(r, c) <= bound for e in fiber(r, c, f)}

    def members(self, f: AtomicFamily, bound: int) -> list[BrElem]:
        """The zero, then each member with row, col <= bound, in window order.

        Nearly the whole window, so it drops the fibers of excluded pairs
        within the bound from the module global restricted_universe, which
        perfbench patches to time the window.
        """
        univ = restricted_universe(f, bound)
        return list(filterfalse(self._gone(f, bound).__contains__, univ))

    def nonzero(self, f: AtomicFamily, bound: int) -> Iterator[BrElem]:
        """The nonzero members, lazily: the window without the excluded
        fibers' elements.  The bound is checked on the call."""
        stream = window(f, bound)
        return filterfalse(self._gone(f, bound).__contains__, stream)


class Tau1Nbhd(_Checked, namedtuple("Tau1Nbhd", "n")):
    """The zero plus all fibers over pairs with n <= row < col."""

    __slots__ = ()

    def __new__(cls, n: int) -> Tau1Nbhd:
        if not is_natural(n):
            raise InvalidElementError("threshold must be a natural")
        return super().__new__(cls, n)

    def __contains__(self, e: BrElem) -> bool:
        return e is ZERO or self.n <= e.row < e.col

    def members(self, f: AtomicFamily, bound: int) -> list[BrElem]:
        """The zero, then each member with row, col <= bound, in window order."""
        out: list[BrElem] = [ZERO]
        out.extend(self.nonzero(f, bound))
        return out

    def nonzero(self, f: AtomicFamily, bound: int) -> Iterator[BrElem]:
        """The nonzero members, lazily, in window order: rows n..bound-1,
        atoms k <= row, cols row+1..bound (row bound has none).

        Generated directly, since the window around them is mostly discarded.
        The bound is checked on the call.
        """
        _natural_bound(bound)
        rows = (product((row,), f.support.upto(row), range(row + 1, bound + 1))
                for row in range(self.n, bound))
        return map(_new, chain.from_iterable(rows))


_is_zero = partial(is_, ZERO)


def _first_miss(items: list, contains) -> int:
    """Index of the first item that `contains` rejects, else len(items).
    Products repeat (most are the zero): `contains` runs once per distinct item."""
    return min(map(items.index, filterfalse(contains, set(items))), default=len(items))


def ac_complement_size(u: AcNbhd, f: AtomicFamily) -> int:
    """Number of elements removed: the sum of the excluded fiber sizes.

    The fiber over (row, col) holds one element per support element up to
    min(row, col), so each size is counted without building the fiber.
    Always finite, which is why these sets form the neighborhood base of a
    one-point compactification of the discrete nonzero part.
    """
    return sum(f.support.count_upto(min(r, c)) for r, c in u.excluded)


@_gc_paused
def check_shift_continuity_ac(
    u: AcNbhd, x: BrElem, f: AtomicFamily, bound: int
) -> VerificationReport:
    """Sweep the canonical inner neighborhood U_K and check both translates.

    K collects the coordinates of x and of the excluded pairs; U_K removes
    every fiber over K x K.  For each member e with coordinates <= bound,
    e*x and x*e must land back in u (zero products land there trivially).
    """
    validate_restricted(x, f)
    if x is ZERO:
        raise InvalidElementError("translation element must be nonzero")
    K = {x.row, x.col, *(c for pair in u.excluded for c in pair)}
    members = AcNbhd(frozenset(product(K, K))).members(f, bound)
    left = list(map(brandt_multiply, members, repeat(x)))
    right = list(map(brandt_multiply, repeat(x), members))
    i = min(_first_miss(left, u.__contains__), _first_miss(right, u.__contains__))
    if i == len(members):
        return VerificationReport(True, i, note=f"U_K sweep with |K|={len(K)}, bound={bound}")
    prod = left[i] if left[i] not in u else right[i]
    return VerificationReport(False, i, (members[i], x, prod),
                              note="translate left the neighborhood")


@_gc_paused
def check_inversion_ac(u: AcNbhd, f: AtomicFamily, bound: int) -> VerificationReport:
    """Inversion maps the transposed-pair neighborhood into u."""
    members = AcNbhd(frozenset((c, r) for r, c in u.excluded)).members(f, bound)
    images = list(map(brandt_invert, members))
    i = _first_miss(images, u.__contains__)
    if i == len(members):
        return VerificationReport(True, i, note=f"transposed sweep, bound={bound}")
    return VerificationReport(False, i, (members[i], images[i]),
                              note="inverse left the neighborhood")


@_gc_paused
def tau1_annihilation_check(x: BrElem, f: AtomicFamily, bound: int) -> VerificationReport:
    """With n = max(row, col) + 1, both translates of U_n by x collapse to the zero."""
    _natural_bound(bound)
    validate_restricted(x, f)
    if x is ZERO:
        return VerificationReport(True, 0, note="zero translates are trivially zero")
    n = max(x.row, x.col) + 1
    members = Tau1Nbhd(n).members(f, bound)
    left = list(map(brandt_multiply, repeat(x), members))
    right = list(map(brandt_multiply, members, repeat(x)))
    i = min(_first_miss(left, _is_zero), _first_miss(right, _is_zero))
    if i == len(members):
        return VerificationReport(True, i, note=f"n={n}, bound={bound}")
    prod = left[i] if left[i] is not ZERO else right[i]
    return VerificationReport(False, i, (x, members[i], prod),
                              note=f"translate by U_{n} member is nonzero")


@_gc_paused
def tau1_self_product_check(u: Tau1Nbhd, f: AtomicFamily, bound: int) -> VerificationReport:
    """All pairwise products of members of u stay in u."""
    members = u.members(f, bound)
    return check_closed(
        members, brandt_multiply, u.__contains__,
        "self-product left the neighborhood", f"n={u.n}, {len(members)} members, bound={bound}",
    )


def check_continuity_tau1(
    u: Tau1Nbhd, x: BrElem, f: AtomicFamily, bound: int
) -> VerificationReport:
    """Annihilation of x against its own threshold plus closure of u under products."""
    first = tau1_annihilation_check(x, f, bound)
    if not first.passed:
        return first
    second = tau1_self_product_check(u, f, bound)
    if not second.passed:
        return second
    return VerificationReport(
        True, first.checked + second.checked, note=f"{first.note}; {second.note}"
    )


def phi(x: BrElem) -> BrElem:
    """x * x^-1: the idempotent (row, val, row)."""
    if x is ZERO:
        return ZERO
    return _new((x.row, x.val, x.row))


def psi(x: BrElem) -> BrElem:
    """x^-1 * x: the idempotent (col, val, col)."""
    if x is ZERO:
        return ZERO
    return _new((x.col, x.val, x.col))


@_gc_paused
def check_prop49_condition(
    u: AcNbhd | Tau1Nbhd, M: list[BrElem], f: AtomicFamily, bound: int
) -> bool:
    """True iff u avoids every element whose phi- or psi-image lies in M.

    A true answer exhibits the neighborhood as a witness against closedness
    of the topology in ambient topological semigroups, at the swept bound.
    Every element of M must be a restricted idempotent of f.

    The scan tests the zero, then draws u's nonzero members one at a time
    in window order, calling phi(e) and psi(e) on each.  It stops at the
    first witness, the first member with an image in M, and draws no member
    after it; a passing scan holds a few members at a time, never the window.
    """
    for m in M:
        validate_restricted(m, f)
        if not brandt_is_idempotent(m):
            raise InvalidElementError(f"non-idempotent in M: {format_brandt(m)}")
    stream = u.nonzero(f, bound)  # checks the bound, even when the zero answers
    ms = set(M)
    if not ms.isdisjoint((phi(ZERO), psi(ZERO))):
        return False
    # tee keeps each member until both its phi and psi images are taken
    a, b = tee(stream)
    return ms.isdisjoint(chain.from_iterable(zip(map(phi, a), map(psi, b))))


def find_zero_witness(a: BrElem, D: list[BrElem]) -> BrElem | None:
    """First d in D annihilated by a on either side, if any.

    a*d and d*a are both nonzero exactly when (row(d), col(d)) is
    (col(a), row(a)), so a witness is missing exactly when every d in D
    lies over that one pair; this is the mechanism behind the tight ideal
    series.  Every candidate must be nonzero, wherever it sits in D.
    """
    if a is ZERO:
        raise InvalidElementError("witness search needs a nonzero element")
    if ZERO in D:
        raise InvalidElementError("witness candidates must be nonzero")
    for d in D:
        if brandt_multiply(a, d) is ZERO or brandt_multiply(d, a) is ZERO:
            return d
    return None

