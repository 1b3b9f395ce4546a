"""Finite-bound models of two zero-neighborhood bases and their checks.

Open sets around the zero answer `e in u` and list their members up to a
bound: the compactification-style base removes finitely many fibers, the
threshold base keeps only fibers with n <= row < col.  All continuity
statements are verified by exhaustive sweeps up to a caller-chosen bound;
that is the honest computable surrogate for the cofinite sets involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, filterfalse, product, repeat
from operator import is_

from .brandt import (
    BrandtElem,
    BrElem,
    _new,
    brandt_invert,
    brandt_is_idempotent,
    brandt_multiply,
    fiber,
    format_brandt,
    restricted_universe,
    validate_restricted,
)
from .core import ZERO, Singleton, Zero
from .errors import InvalidElementError
from .families import AtomicFamily, _is_natural, is_natural
from .report import VerificationReport, check_closed


@dataclass(frozen=True)
class AcNbhd:
    """Everything except the fibers over finitely many (row, col) pairs."""

    excluded: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        if not all(_is_natural(r) and _is_natural(c) for r, c in self.excluded):
            raise InvalidElementError("excluded pairs must be naturals")

    def __contains__(self, e: BrElem) -> bool:
        return e is ZERO or (e.row, e.col) not in self.excluded

    def members(self, f: AtomicFamily, bound: int) -> list[BrElem]:
        """The zero, then each member with row, col <= bound, in window order.

        Nearly the whole window, so it drops the fibers of excluded pairs
        within the bound from the module global restricted_universe, which
        perfbench patches to time the window.
        """
        window = restricted_universe(f, bound)
        gone = {e for r, c in self.excluded if max(r, c) <= bound for e in fiber(r, c, f)}
        return list(filterfalse(gone.__contains__, window))


@dataclass(frozen=True)
class Tau1Nbhd:
    """The zero plus all fibers over pairs with n <= row < col."""

    n: int

    def __post_init__(self) -> None:
        if not is_natural(self.n):
            raise InvalidElementError("threshold must be a natural")

    def __contains__(self, e: BrElem) -> bool:
        return e is ZERO or self.n <= e.row < e.col

    def members(self, f: AtomicFamily, bound: int) -> list[BrElem]:
        """The zero, then each member with row, col <= bound, in window order:
        rows n..bound, atoms k <= row, cols row+1..bound.

        Generated directly, since the window around it is mostly discarded.
        """
        if not is_natural(bound):
            raise InvalidElementError("bound must be a natural")
        out: list[BrElem] = [ZERO]
        for row in range(self.n, bound + 1):
            cols = range(row + 1, bound + 1)
            for k in f.support.upto(row):
                out.extend(map(_new, zip(repeat(row), repeat(k), cols)))
        return out


_is_zero = partial(is_, ZERO)


def _first_miss(items: list, contains) -> int:
    """Index of the first item that `contains` rejects, else len(items).
    Products repeat (most are the zero): `contains` runs once per distinct item."""
    return min(map(items.index, filterfalse(contains, set(items))), default=len(items))


def ac_complement_size(u: AcNbhd, f: AtomicFamily) -> int:
    """Number of elements removed: the sum of the excluded fiber sizes.

    Always finite, which is why these sets form the neighborhood base of a
    one-point compactification of the discrete nonzero part.
    """
    return sum(len(fiber(r, c, f)) for r, c in u.excluded)


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


def check_inversion_ac(u: AcNbhd, f: AtomicFamily, bound: int) -> VerificationReport:
    """Inversion maps the transposed-pair neighborhood into u."""
    members = AcNbhd(frozenset((c, r) for r, c in u.excluded)).members(f, bound)
    images = list(map(brandt_invert, members))
    i = _first_miss(images, u.__contains__)
    if i == len(members):
        return VerificationReport(True, i, note=f"transposed sweep, bound={bound}")
    return VerificationReport(False, i, (members[i], images[i]),
                              note="inverse left the neighborhood")


def tau1_annihilation_check(x: BrElem, f: AtomicFamily, bound: int) -> VerificationReport:
    """With n = max(row, col) + 1, both translates of U_n by x collapse to the zero."""
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


def check_prop49_condition(
    u: AcNbhd | Tau1Nbhd, M: list[BrElem], f: AtomicFamily, bound: int
) -> bool:
    """True iff u avoids every element whose phi- or psi-image lies in M.

    A true answer exhibits the neighborhood as a witness against closedness
    of the topology in ambient topological semigroups, at the swept bound.
    """
    for m in M:
        if not brandt_is_idempotent(m):
            raise InvalidElementError(f"non-idempotent in M: {format_brandt(m)}")
    members = u.members(f, bound)
    # phi(e), psi(e) member by member, so the scan stops at the first image in M
    return set(M).isdisjoint(chain.from_iterable(zip(map(phi, members), map(psi, members))))


def find_zero_witness(a: BrElem, D: list[BrElem]) -> BrElem | None:
    """First d in D annihilated by a on either side, if any.

    Guaranteed to exist whenever D has at least two distinct rows and two
    distinct columns, which is the mechanism behind the tight ideal series.
    """
    if a is ZERO:
        raise InvalidElementError("witness search needs a nonzero element")
    for d in D:
        if d is ZERO:
            raise InvalidElementError("witness candidates must be nonzero")
        if brandt_multiply(a, d) is ZERO or brandt_multiply(d, a) is ZERO:
            return d
    return None


class Adjoined(Singleton):
    """Extra point adjoined to the semigroup; every product with it is zero."""

    __slots__ = ()


ADJOINED = Adjoined()

ExtendedElem = Zero | BrandtElem | Adjoined


def extended_multiply(x: ExtendedElem, y: ExtendedElem) -> ExtendedElem:
    if isinstance(x, Adjoined) or isinstance(y, Adjoined):
        return ZERO
    return brandt_multiply(x, y)


@dataclass(frozen=True)
class MSeq:
    """Interleaved sequence (r_1,v_1,c_1), (r_2,v_2,c_2), ... with
    r_1 < c_1 < r_2 < c_2 < ...; a finite prefix of the off-diagonal
    neighborhood ladder of the adjoined point."""

    entries: tuple[BrandtElem, ...]

    def __post_init__(self) -> None:
        prev_top = -1
        for e in self.entries:
            if not (isinstance(e, BrandtElem) and all(map(is_natural, e))):
                raise InvalidElementError("sequence entries must be nonzero triples of naturals")
            if not (prev_top < e.row < e.col):
                raise InvalidElementError("indices must strictly interleave")
            prev_top = e.col

    def __len__(self) -> int:
        return len(self.entries)


def mseq_nbhd_contains(seq: MSeq, n: int, e: ExtendedElem) -> bool:
    """Membership in U_n = {adjoined point} u entries from position n on (1-based)."""
    if not 1 <= n <= len(seq):
        raise IndexError(f"n must be in 1..{len(seq)}")
    if isinstance(e, Adjoined):
        return True
    return e in seq.entries[n - 1 :]
