"""Finite-bound models of two zero-neighborhood bases and their checks.

Open sets around the zero answer `e in u` and list their members up to a
bound: the compactification-style base removes finitely many fibers, the
threshold base keeps only fibers with n <= row < col.  All continuity
statements are verified by exhaustive sweeps up to a caller-chosen bound;
that is the honest computable surrogate for the cofinite sets involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .brandt import (
    BrandtElem,
    BrElem,
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
from .families import AtomicFamily
from .report import VerificationReport, check_closed


@dataclass(frozen=True)
class AcNbhd:
    """Everything except the fibers over finitely many (row, col) pairs."""

    excluded: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        pairs = frozenset((int(r), int(c)) for r, c in self.excluded)
        if any(r < 0 or c < 0 for r, c in pairs):
            raise InvalidElementError("excluded pairs must be naturals")
        object.__setattr__(self, "excluded", pairs)

    def __contains__(self, e: BrElem) -> bool:
        return e is ZERO or (e.row, e.col) not in self.excluded

    def members(self, f: AtomicFamily, bound: int) -> list[BrElem]:
        """The zero, then each member with row, col <= bound, in window order.

        Nearly the whole window, so it filters the module global
        restricted_universe, which perfbench patches to time the window.
        """
        return list(filter(self.__contains__, restricted_universe(f, bound)))


@dataclass(frozen=True)
class Tau1Nbhd:
    """The zero plus all fibers over pairs with n <= row < col."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidElementError("threshold must be a natural")

    def __contains__(self, e: BrElem) -> bool:
        return e is ZERO or self.n <= e.row < e.col

    def members(self, f: AtomicFamily, bound: int) -> list[BrElem]:
        """The zero, then each member with row, col <= bound, in window order:
        rows n..bound, atoms k <= row, cols row+1..bound.

        Generated directly, since the window around it is mostly discarded.
        """
        if bound < 0:
            raise InvalidElementError("bound must be a natural")
        out: list[BrElem] = [ZERO]
        for row in range(self.n, bound + 1):
            cols = range(row + 1, bound + 1)
            for k in f.support.upto(row):
                out.extend(BrandtElem(row, k, col) for col in cols)
        return out


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
    checked = 0
    for e in AcNbhd(frozenset(product(K, K))).members(f, bound):
        for prod in (brandt_multiply(e, x), brandt_multiply(x, e)):
            if prod not in u:
                return VerificationReport(
                    False, checked, (e, x, prod), note="translate left the neighborhood"
                )
        checked += 1
    return VerificationReport(True, checked, note=f"U_K sweep with |K|={len(K)}, bound={bound}")


def check_inversion_ac(u: AcNbhd, f: AtomicFamily, bound: int) -> VerificationReport:
    """Inversion maps the transposed-pair neighborhood into u."""
    transposed = AcNbhd(frozenset((c, r) for r, c in u.excluded))
    checked = 0
    for e in transposed.members(f, bound):
        if brandt_invert(e) not in u:
            return VerificationReport(
                False, checked, (e, brandt_invert(e)), note="inverse left the neighborhood"
            )
        checked += 1
    return VerificationReport(True, checked, note=f"transposed sweep, bound={bound}")


def tau1_annihilation_check(x: BrElem, f: AtomicFamily, bound: int) -> VerificationReport:
    """With n = max(row, col) + 1, both translates of U_n by x collapse to the zero."""
    validate_restricted(x, f)
    if x is ZERO:
        return VerificationReport(True, 0, note="zero translates are trivially zero")
    n = max(x.row, x.col) + 1
    checked = 0
    for e in Tau1Nbhd(n).members(f, bound):
        for prod in (brandt_multiply(x, e), brandt_multiply(e, x)):
            if prod is not ZERO:
                return VerificationReport(
                    False, checked, (x, e, prod), note=f"translate by U_{n} member is nonzero"
                )
        checked += 1
    return VerificationReport(True, checked, note=f"n={n}, bound={bound}")


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
    return BrandtElem(x.row, x.val, x.row)


def psi(x: BrElem) -> BrElem:
    """x^-1 * x: the idempotent (col, val, col)."""
    if x is ZERO:
        return ZERO
    return BrandtElem(x.col, x.val, x.col)


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
    mset = set(M)
    return not any(phi(e) in mset or psi(e) in mset for e in u.members(f, bound))


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
            if not isinstance(e, BrandtElem):
                raise InvalidElementError("sequence entries must be nonzero triples")
            if not (prev_top < e.row < e.col):
                raise InvalidElementError("indices must strictly interleave")
            prev_top = e.col

    def validate_over(self, f: AtomicFamily) -> None:
        for e in self.entries:
            validate_restricted(e, f)

    def __len__(self) -> int:
        return len(self.entries)


def mseq_nbhd_contains(seq: MSeq, n: int, e: ExtendedElem) -> bool:
    """Membership in U_n = {adjoined point} u entries from position n on (1-based)."""
    if not 1 <= n <= len(seq):
        raise IndexError(f"n must be in 1..{len(seq)}")
    if isinstance(e, Adjoined):
        return True
    return e in seq.entries[n - 1 :]
