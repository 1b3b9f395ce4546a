"""The core inverse semigroup: pairs (i, j) carrying an atom k, plus a zero.

Nonzero elements multiply by the two-case rule on the (i, j) pairs; the
product survives exactly when j1 + k1 == i2 + k2, otherwise it falls into
the zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .errors import InvalidElementError, ParseError
from .families import AtomicFamily, _is_natural, is_natural, nat


class Singleton:
    """A class with one instance, bound in the class's module to the class
    name in upper case, which is also its repr.  Copies and pickles of the
    instance are the instance itself."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return type(self).__name__.upper()

    def __reduce__(self) -> str:
        return repr(self)  # the module-level name, for every pickle protocol


class Zero(Singleton):
    """Absorbing zero, a singleton shared by every element kind."""

    __slots__ = ()


ZERO = Zero()


@dataclass(frozen=True, order=True, slots=True)
class AtomElem:
    """Nonzero element (i, j, {k}): a pair of naturals and an atom index."""

    i: int
    j: int
    k: int


Elem = Zero | AtomElem


def validate_elem(x: Elem, f: AtomicFamily) -> None:
    if x is ZERO:
        return
    if not (_is_natural(x.i) and _is_natural(x.j)):
        fault = "negative" if type(x.i) is type(x.j) is int else "non-natural"
        raise InvalidElementError(f"{fault} coordinate in {format_elem(x)}")
    if x.k not in f.support:
        raise InvalidElementError(f"atom {x.k} is not in support {f.support}")


def _mul(a: Elem, b: Elem) -> Elem:
    # Unchecked two-case product; the nonzero condition j1+k1 == i2+k2 is
    # the singleton trace of the shifted-intersection formula.
    if a is ZERO or b is ZERO:
        return ZERO
    if a.j + a.k != b.i + b.k:
        return ZERO
    if a.j <= b.i:
        return AtomElem(a.i - a.j + b.i, b.j, b.k)
    return AtomElem(a.i, a.j - b.i + b.j, a.k)


def multiply(a: Elem, b: Elem, f: AtomicFamily) -> Elem:
    validate_elem(a, f)
    validate_elem(b, f)
    return _mul(a, b)


def invert(x: Elem) -> Elem:
    """(i, j, k) -> (j, i, k); the unique inverse under the product."""
    if x is ZERO:
        return ZERO
    return AtomElem(x.j, x.i, x.k)


def is_idempotent(x: Elem) -> bool:
    return x is ZERO or x.i == x.j


def nat_leq(x: Elem, y: Elem) -> bool:
    """Coordinate criterion for the natural partial order: x below y iff
    k_y - k_x == i_x - i_y == j_x - j_y is a natural."""
    if x is ZERO:
        return True
    if y is ZERO:
        return False
    p = y.k - x.k
    return p >= 0 and x.i - y.i == p and x.j - y.j == p


def _witness_products(y: AtomElem, f: AtomicFamily, mmax: int):
    """Yield y*(m, m, k) for every m <= mmax and every atom k <= j_y + k_y.

    The brute-force search of the definitional order.  A product that is
    nonzero needs j_y + k_y == m + k, so larger atoms only give the zero.
    If it is nonzero and j_y <= m it is (i_y - j_y + m, m, k), whose second
    coordinate is m; otherwise it is y itself, with m < j_y.  So every
    nonzero product x has its witness at m <= max(j_x, j_y), and any mmax
    at least that large yields the same nonzero products.
    """
    for m in range(mmax + 1):
        for k in f.support.upto(y.j + y.k):
            yield _mul(y, AtomElem(m, m, k))


def nat_leq_definitional(x: Elem, y: Elem, f: AtomicFamily) -> bool:
    """Definitional order: x below y iff y*e == x for some idempotent e.

    Brute-force oracle over the witnesses of `_witness_products`, which are
    complete for m up to the largest coordinate of x and y.
    """
    validate_elem(x, f)
    validate_elem(y, f)
    if x is ZERO:
        return True  # e = ZERO
    if y is ZERO:
        return False
    return x in _witness_products(y, f, max(x.i, x.j, y.i, y.j))


def immediate_predecessors(x: Elem, f: AtomicFamily) -> list[Elem]:
    """The unique element covered by x: step the atom down and the pair up.

    An element over the least atom covers only the zero; the zero covers
    nothing.
    """
    validate_elem(x, f)
    if x is ZERO:
        return []
    below = f.support.predecessor(x.k)
    if below is None:
        return [ZERO]
    p = x.k - below
    return [AtomElem(x.i + p, x.j + p, below)]


def maximal_chain_down(x: Elem, f: AtomicFamily) -> list[Elem]:
    """The descending chain from x through iterated predecessors to the zero.

    Each link steps the atom to the next support element below, adding the
    cumulative difference to both coordinates; the chain has length
    index(k) + 2.
    """
    validate_elem(x, f)
    if x is ZERO:
        raise InvalidElementError("chains start from a nonzero element")
    chain: list[Elem] = [x]
    while chain[-1] is not ZERO:
        (pred,) = immediate_predecessors(chain[-1], f)
        chain.append(pred)
    return chain


def census_atoms(f: AtomicFamily, bound: int) -> list[int]:
    """Atoms entering a census at this bound: the whole support when it is
    finite, the first bound+1 elements otherwise."""
    if not is_natural(bound):
        raise InvalidElementError("bound must be a natural")
    if f.support.tail is None:
        return list(f.support.explicit)
    return [f.support.kth(m) for m in range(bound + 1)]


def idempotent_chain_census(f: AtomicFamily, bound: int) -> dict[int, int]:
    """Tally chain lengths index(k)+2 over idempotents (i, i, {k}), i <= bound."""
    return {f.support.index_of(k) + 2: bound + 1 for k in census_atoms(f, bound)}


def elements_upto(f: AtomicFamily, bound: int) -> list[Elem]:
    """The zero plus every (i, j, k) with i, j <= bound and atom k <= bound."""
    if not is_natural(bound):
        raise InvalidElementError("bound must be a natural")
    out: list[Elem] = [ZERO]
    ks = f.support.upto(bound)
    for i in range(bound + 1):
        for j in range(bound + 1):
            for k in ks:
                out.append(AtomElem(i, j, k))
    return out


# --- text and JSON forms ------------------------------------------------

def format_elem(x: Elem) -> str:
    if x is ZERO:
        return "0"
    return f"({x.i},{x.j},{x.k})"


def _parse_triple(text: str, zero: str, sep: str, make: Callable, error: str):
    """`zero`, or three naturals joined by sep in parentheses, passed to
    make; whitespace is ignored.  Anything else raises ParseError."""
    s = "".join(text.split())
    if s == zero:
        return ZERO
    if s.startswith("(") and s.endswith(")"):
        parts = [nat(p) for p in s[1:-1].split(sep)]
        if len(parts) == 3 and None not in parts:
            return make(*parts)
    raise ParseError(f"{error}: {text!r}")


def parse_elem(text: str) -> Elem:
    return _parse_triple(text, "0", ",", AtomElem, "bad element")


def elem_to_json(x: Elem) -> dict:
    if x is ZERO:
        return {"zero": True}
    return {"i": x.i, "j": x.j, "k": x.k}


# --- element kinds ------------------------------------------------------

@dataclass(frozen=True)
class ElemKind:
    """One element form: its unchecked product, inverse, idempotent test,
    validation against a family, and text and JSON forms.

    The pair-with-atom triples and the restricted Brandt triples are two
    forms of one semigroup; code that serves both takes a kind instead of
    branching on which form it holds.
    """

    mul: Callable[[Any, Any], Any]
    inv: Callable[[Any], Any]
    idem: Callable[[Any], bool]
    validate: Callable[[Any, AtomicFamily], None]
    parse: Callable[[str], Any]
    fmt: Callable[[Any], str]
    to_json: Callable[[Any], dict]


ATOMS = ElemKind(mul=_mul, inv=invert, idem=is_idempotent, validate=validate_elem,
                 parse=parse_elem, fmt=format_elem, to_json=elem_to_json)
