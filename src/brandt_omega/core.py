"""The core inverse semigroup: pairs (i, j) carrying an atom k, plus a zero.

Nonzero elements multiply by the two-case rule on the (i, j) pairs; the
product survives exactly when j1 + k1 == i2 + k2, otherwise it falls into
the zero.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable

from .errors import InvalidElementError, ParseError
from .families import AtomicFamily, _is_natural, _natural_bound, nat


class Zero:
    """Absorbing zero, shared by every element kind.  ZERO is the one
    instance: Zero(), copies and pickles of it all give ZERO back."""

    __slots__ = ()

    def __new__(cls):
        return ZERO

    def __repr__(self) -> str:
        return "ZERO"

    def __reduce__(self) -> str:
        return "ZERO"  # the module-level name, for every pickle protocol


ZERO = object.__new__(Zero)


class AtomElem:
    """Nonzero element (i, j, {k}): a pair of naturals and an atom index.

    The one record not built on a named tuple: a tuple equals every tuple
    with the same items, and an AtomElem must never equal the BrandtElem
    (row, val, col) with the same three numbers.  The slots are set once,
    in __new__, through their member descriptors, so a second __init__
    call cannot rewrite a live element.
    """

    __slots__ = ("i", "j", "k")

    def __new__(cls, i: int, j: int, k: int) -> AtomElem:
        self = _alloc(cls)
        _set_i(self, i)
        _set_j(self, j)
        _set_k(self, k)
        return self

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"AtomElem fields are read-only: {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not AtomElem:
            return NotImplemented
        return self.i == other.i and self.j == other.j and self.k == other.k

    def __hash__(self) -> int:
        return hash((self.i, self.j, self.k))

    def __repr__(self) -> str:
        return f"AtomElem(i={self.i!r}, j={self.j!r}, k={self.k!r})"

    def __reduce__(self):
        return AtomElem, (self.i, self.j, self.k)


# Bound once: each is a C call in AtomElem.__new__, run per product, that
# bypasses the class's read-only __setattr__.
_alloc = object.__new__
_set_i, _set_j, _set_k = (vars(AtomElem)[name].__set__ for name in AtomElem.__slots__)


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
    """The descending chain from x = (i, j, {k}) through iterated predecessors
    to the zero: the link (i + k - m, j + k - m, {m}) for each support element
    m <= k, from k down, so the chain has length index(k) + 2."""
    validate_elem(x, f)
    if x is ZERO:
        raise InvalidElementError("chains start from a nonzero element")
    below = reversed(f.support.upto(x.k))
    return [AtomElem(x.i + x.k - m, x.j + x.k - m, m) for m in below] + [ZERO]


def census_atoms(f: AtomicFamily, bound: int) -> list[int]:
    """Atoms entering a census at this bound: the whole support when it is
    finite, the first bound+1 elements otherwise."""
    _natural_bound(bound)
    if f.support.tail is None:
        return list(f.support.explicit)
    return [f.support.kth(m) for m in range(bound + 1)]


def idempotent_chain_census(f: AtomicFamily, bound: int) -> dict[int, int]:
    """Tally chain lengths index(k)+2 over idempotents (i, i, {k}), i <= bound."""
    return {f.support.index_of(k) + 2: bound + 1 for k in census_atoms(f, bound)}


def elements_upto(f: AtomicFamily, bound: int) -> list[Elem]:
    """The zero plus every (i, j, k) with i, j <= bound and atom k <= bound."""
    _natural_bound(bound)
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

# One element form: its unchecked product, inverse, idempotent test,
# validation against a family, and text and JSON forms.  The pair-with-atom
# triples and the restricted Brandt triples are two forms of one semigroup;
# code that serves both takes a kind instead of branching on which form it
# holds.
ElemKind = namedtuple("ElemKind", "mul inv idem validate parse fmt to_json")


ATOMS = ElemKind(mul=_mul, inv=invert, idem=is_idempotent, validate=validate_elem,
                 parse=parse_elem, fmt=format_elem, to_json=elem_to_json)
