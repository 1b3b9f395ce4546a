"""Brandt extension over the min-semilattice on a support.

Elements are (row, val, col) triples plus an absorbing zero; the product
matches inner indices and meets the values.  The restricted subsemigroup
(val <= row and val <= col) is the image of the core semigroup under the
embedding (i, j, {k}) -> (i+k, k, j+k).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache, partial
from itertools import chain, product

from .core import (
    ATOMS, AtomElem, Elem, ElemKind, ZERO, Zero, _parse_triple, elements_upto, validate_elem,
)
from .errors import InvalidElementError, NotInImageError
from .families import AtomicFamily, _is_natural, _natural_bound
from .report import VerificationReport, check_closed, check_injective_homomorphism

class BrandtElem(namedtuple("BrandtElem", "row val col")):
    """Nonzero triple (row, val, col).

    A tuple, so hashing, equality and the (row, val, col) ordering are
    tuple's own, in C; the window sweeps build thousands per query.  It
    never equals an AtomElem, which is not a tuple.
    """

    __slots__ = ()


BrElem = Zero | BrandtElem

# Builds a BrandtElem from one (row, val, col) tuple in C, with no Python frame.
_new = partial(tuple.__new__, BrandtElem)


def brandt_multiply(a: BrElem, b: BrElem) -> BrElem:
    """Index-matching product; values meet by min."""
    if a is ZERO or b is ZERO:
        return ZERO
    if a.col != b.row:
        return ZERO
    return _new((a.row, min(a.val, b.val), b.col))


def brandt_invert(e: BrElem) -> BrElem:
    if e is ZERO:
        return ZERO
    return _new((e.col, e.val, e.row))


def brandt_is_idempotent(e: BrElem) -> bool:
    return e is ZERO or e.row == e.col


def in_restricted(e: BrElem, f: AtomicFamily) -> bool:
    """Membership in the restricted subsemigroup.

    Closed form for "some (i, j, {k}) maps onto e": row and col naturals,
    val in support and val <= row and val <= col.
    """
    if e is ZERO:
        return True
    return (_is_natural(e.row) and _is_natural(e.col) and e.val in f.support
            and e.val <= e.row and e.val <= e.col)


def validate_restricted(e: BrElem, f: AtomicFamily) -> None:
    if not in_restricted(e, f):
        raise NotInImageError(f"{format_brandt(e)} is not in the restricted subsemigroup")


def fiber(row: int, col: int, f: AtomicFamily) -> list[BrandtElem]:
    """All restricted elements with the given row and column, sorted by value."""
    if not (_is_natural(row) and _is_natural(col)):
        raise InvalidElementError("fiber coordinates must be naturals")
    return [BrandtElem(row, k, col) for k in f.support.upto(min(row, col))]


def embed(x: Elem, f: AtomicFamily) -> BrElem:
    """(i, j, {k}) -> (i+k, k, j+k); zero to zero."""
    validate_elem(x, f)
    if x is ZERO:
        return ZERO
    return BrandtElem(x.i + x.k, x.k, x.j + x.k)


def embed_inverse(e: BrElem, f: AtomicFamily) -> Elem:
    """(row, val, col) -> (row-val, col-val, {val}); two-sided inverse of embed."""
    validate_restricted(e, f)
    if e is ZERO:
        return ZERO
    return AtomElem(e.row - e.val, e.col - e.val, e.val)


def window(f: AtomicFamily, bound: int) -> Iterator[BrandtElem]:
    """The nonzero restricted elements with row, col <= bound, lazily, in
    sorted (row, val, col) order.  The bound is checked on the call."""
    _natural_bound(bound)
    return map(_new, chain.from_iterable(product((row,), (k,), range(k, bound + 1))
                                         for row in range(bound + 1) for k in f.support.upto(row)))


@lru_cache(maxsize=2)
def _cached_window(f: AtomicFamily, bound: int) -> tuple[BrandtElem, ...]:
    return tuple(window(f, bound))


def restricted_universe(f: AtomicFamily, bound: int) -> list[BrElem]:
    """The zero, then the window: every restricted element with
    row, col <= bound, in sorted (row, val, col) order.

    The two most recent windows are cached as tuples, so a sweep that reads
    the same window again does not rebuild it; each call still returns a
    fresh list.  The bound is checked first, since the cache's keys equate
    True with 1 and 2.0 with 2.
    """
    _natural_bound(bound)
    return [ZERO, *_cached_window(f, bound)]


def verify_embedding_homomorphism(f: AtomicFamily, bound: int) -> VerificationReport:
    """Sweep all pairs with coordinates <= bound: the embedding preserves
    products and is injective on the swept universe.  The unchecked product
    suffices, since embed validates each distinct product."""
    univ = elements_upto(f, bound)
    return check_injective_homomorphism(
        univ, lambda x: embed(x, f), ATOMS.mul, brandt_multiply,
        "embedding", f"injective homomorphism on {len(univ)} elements",
    )


def verify_restricted_closed(f: AtomicFamily, bound: int) -> VerificationReport:
    """Sweep all restricted pairs with coordinates <= bound: products stay
    in the restricted subsemigroup."""
    univ = restricted_universe(f, bound)
    note = f"closed under products on {len(univ)} elements"
    return check_closed(univ, brandt_multiply, lambda e: in_restricted(e, f),
                        "product left the restricted set", note)


# --- text and JSON forms ------------------------------------------------

def format_brandt(e: BrElem) -> str:
    if e is ZERO:
        return "O"
    return f"({e.row};{e.val};{e.col})"


def parse_brandt(text: str) -> BrElem:
    return _parse_triple(text, "O", ";", BrandtElem, "bad Brandt element")


def brandt_to_json(e: BrElem) -> dict:
    if e is ZERO:
        return {"O": True}
    return {"row": e.row, "val": e.val, "col": e.col}


BRANDT = ElemKind(mul=brandt_multiply, inv=brandt_invert, idem=brandt_is_idempotent,
                  validate=validate_restricted, parse=parse_brandt, fmt=format_brandt,
                  to_json=brandt_to_json)
