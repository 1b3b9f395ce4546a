"""Brute-force oracle layer: bounded universes and exhaustive checks.

Products may leave the bounded window; they are still closed-form elements
and are compared exactly, so no boundary truncation is applied.  Sweeps
run in lexicographic order and report the first counterexample, which
keeps failures reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from itertools import repeat
from operator import itemgetter

from .brandt import (
    BRANDT,
    restricted_universe,
    verify_embedding_homomorphism,
    verify_restricted_closed,
)
from .core import (
    ATOMS,
    AtomElem,
    Elem,
    ZERO,
    _mul,
    census_atoms,
    elements_upto,
    maximal_chain_down,
    nat_leq,
    validate_elem,
)
from .errors import InvalidElementError, NotTranslateEquivalentError
from .families import AtomicFamily, are_translate_equivalent
from .report import VerificationReport, check_injective_homomorphism


class BoundedUniverse(namedtuple("BoundedUniverse", "family bound kind elements")):
    """All elements with coordinates <= bound, plus the zero."""

    __slots__ = ()

    @classmethod
    def atoms(cls, family: AtomicFamily, bound: int) -> "BoundedUniverse":
        return cls(family, bound, ATOMS, tuple(elements_upto(family, bound)))

    @classmethod
    def brandt(cls, family: AtomicFamily, bound: int) -> "BoundedUniverse":
        return cls(family, bound, BRANDT, tuple(restricted_universe(family, bound)))

    def product(self) -> Callable:
        return self.kind.mul


def check_associativity(
    universe: BoundedUniverse, product: Callable | None = None
) -> VerificationReport:
    """(a*b)*c == a*(b*c) for every triple; exact equality.

    An alternative product can be injected to sanity-check the harness
    itself against a deliberately corrupted operation.

    Every element met is interned as an int id, window elements first at
    their positions.  With U the window together with its pairwise
    products, rows[a] holds the ids of a*y for y in U and left[x] the ids
    of x*c for c in the window, as a tuple, so (a*b)*c for all c is
    left[a*b] and a*(b*c) is rows[a] gathered at left[b].  The products
    computed are exactly the pairs a triple-by-triple sweep asks for when
    it passes.

    One pass visits (a, b) in lexicographic order.  Most products are the
    zero, whose row is constant.  Where left[a*b] is one id t throughout
    (read off the table, never assumed, so an injected product cannot slip
    past), (a, b) passes when every id of left[b] maps to t under rows[a]:
    one set inclusion.  Otherwise rows[a] is gathered at left[b] by one
    itemgetter, built once per b, and the tuple is compared with left[a*b];
    the first differing c gives the same first counterexample and
    `checked` count as a triple-by-triple sweep.
    """
    mul = product if product is not None else universe.product()
    elems = universe.elements
    n = len(elems)
    ids = {x: p for p, x in enumerate(elems)}
    square = [[ids.setdefault(mul(a, c), len(ids)) for c in elems] for a in elems]
    outside = list(ids)[n:]  # U minus the window
    left = [tuple(r) for r in square + [[ids.setdefault(mul(x, c), len(ids)) for c in elems]
                                        for x in outside]]
    rows = [r + [ids.setdefault(mul(a, y), len(ids)) for y in outside]
            for a, r in zip(elems, square)]
    const = [r[0] if r.count(r[0]) == n else None for r in left]
    vals = [set(r) for r in square]
    # With n == 1 every row is constant and a getter returns a bare id, so
    # the comparison below is reached only when the inclusion has failed.
    gathers = [itemgetter(*r) for r in square]
    checked = 0
    for a, row, ab_row in zip(elems, rows, square):
        hits: dict[int, set] = {}  # t -> {y : row[y] == t}, built when first needed
        for b, ab, b_row, b_vals, gather in zip(elems, ab_row, square, vals, gathers):
            t = const[ab]
            if t is not None:
                if t not in hits:
                    hits[t] = {y for y, z in enumerate(row) if z == t}
                if b_vals <= hits[t]:
                    checked += n
                    continue
            lhs = left[ab]
            if lhs != gather(row):
                c = next(c for c, y in enumerate(b_row) if lhs[c] != row[y])
                return VerificationReport(False, checked + c, (a, b, elems[c]),
                                          note="associativity failed")
            checked += n
    return VerificationReport(True, checked, note=f"{len(elems)} elements, bound={universe.bound}")


def check_inverse_axioms(universe: BoundedUniverse) -> VerificationReport:
    """x x^-1 x == x and x^-1 x x^-1 == x^-1 everywhere; idempotents commute."""
    mul, inv, idem = universe.kind.mul, universe.kind.inv, universe.kind.idem
    checked = 0
    for x in universe.elements:
        xi = inv(x)
        if mul(mul(x, xi), x) != x or mul(mul(xi, x), xi) != xi:
            return VerificationReport(False, checked, (x,), note="inverse axiom failed")
        checked += 1
    idems = [x for x in universe.elements if idem(x)]
    for e in idems:
        for g in idems:
            if mul(e, g) != mul(g, e):
                return VerificationReport(False, checked, (e, g), note="idempotents do not commute")
            checked += 1
    return VerificationReport(
        True, checked, note=f"{len(universe.elements)} elements, {len(idems)} idempotents"
    )


def _require_atoms(universe: BoundedUniverse) -> None:
    if universe.kind is not ATOMS:
        raise InvalidElementError("this check runs on the pair-with-atom universe")


def _witness_positions(elems, pos: dict, f: AtomicFamily) -> list[set]:
    """For each y of elems, the positions in pos of the zero (the witness
    e = ZERO) and of every y*(m, m, k) with m up to top, the largest second
    coordinate in elems, and k an atom <= j_y + k_y: the nonzero products
    of `_witness_products(y, f, top)`.

    The idempotents (m, m, k) are built once, ordered by atom and then by
    m, so the witnesses of y are a prefix of that list.  A product outside
    pos equals no window element, so dropping it is exact.
    """
    nonzero = [y for y in elems if y is not ZERO]
    top = max((y.j for y in nonzero), default=0)
    reach = max((y.j + y.k for y in nonzero), default=0)
    idems = [AtomElem(m, m, k) for k in f.support.upto(reach) for m in range(top + 1)]
    count = f.support.count_upto
    below = []
    for y in elems:
        witnesses = () if y is ZERO else idems[:(top + 1) * count(y.j + y.k)]
        below.append({pos.get(ZERO), *map(pos.get, map(_mul, repeat(y), witnesses))} - {None})
    return below


def check_order_equivalence(universe: BoundedUniverse) -> VerificationReport:
    """The coordinate criterion agrees with the idempotent-witness order.

    The witness order is read off one set per y: the zero (the witness
    e = ZERO) and every y*(m, m, k) with m up to the largest second
    coordinate in the window.  By `_witness_products` a nonzero x = y*e has
    its witness at m <= max(j_x, j_y), within that range, so x is in the
    set of y exactly when nat_leq_definitional(x, y) holds.  The sets come
    from `_witness_positions`, which builds the idempotents once for all y
    and takes the same products as `_witness_products`.

    Each set holds window positions, one per value, and is spread into a
    row of marks per position: marks[p][y] says p is in the set of y.  Row
    x is then one list of nat_leq(x, y) compared with the marks of x's
    position, and the first differing y gives the pairwise sweep's report.
    """
    _require_atoms(universe)
    f = universe.family
    elems = universe.elements
    for x in elems:
        validate_elem(x, f)
    n = len(elems)
    pos = {x: p for p, x in enumerate(elems)}
    marks = [[False] * n for _ in range(n)]
    for y, below in enumerate(_witness_positions(elems, pos, f)):
        for p in below:
            marks[p][y] = True
    checked = 0
    for x in elems:
        lhs = list(map(nat_leq, repeat(x), elems))
        rhs = marks[pos[x]]
        if lhs != rhs:
            c = next(c for c in range(n) if lhs[c] != rhs[c])
            return VerificationReport(False, checked + c, (x, elems[c]),
                                      note="order criteria disagree")
        checked += n
    return VerificationReport(True, checked, note=f"bound={universe.bound}")


# The five sweeps of `verify`, in report order: name, runner(family,
# bound), and the element kind of its counterexamples.
VERIFY_CHECKS = (
    ("associativity", lambda f, b: check_associativity(BoundedUniverse.atoms(f, b)), ATOMS),
    ("inverse-axioms", lambda f, b: check_inverse_axioms(BoundedUniverse.atoms(f, b)), ATOMS),
    ("order-equivalence", lambda f, b: check_order_equivalence(BoundedUniverse.atoms(f, b)), ATOMS),
    ("embedding-homomorphism", verify_embedding_homomorphism, ATOMS),
    ("restricted-closure", verify_restricted_closed, BRANDT),
)


def check_chain_structure(universe: BoundedUniverse) -> VerificationReport:
    """Chains from every nonzero element: length, adjacency, and maximality.

    Length must be index(atom)+2; every adjacent pair must satisfy the
    order criterion with nothing from the universe strictly between.  Note
    that links carry cumulative coordinate shifts (i + k_top - k_m); links
    shifted per-step instead would fail the order criterion between
    consecutive entries.
    """
    _require_atoms(universe)
    f = universe.family
    note = (
        "links use cumulative shifts; per-step shifts fail the order criterion "
        "between consecutive links"
    )
    checked = 0
    for x in universe.elements:
        if x is ZERO:
            continue
        chain = maximal_chain_down(x, f)
        if len(chain) != f.support.index_of(x.k) + 2 or chain[-1] is not ZERO:
            return VerificationReport(False, checked, (x,), note="chain length mismatch")
        for hi, lo in zip(chain, chain[1:]):
            if not (nat_leq(lo, hi) and lo != hi):
                return VerificationReport(False, checked, (hi, lo), note="adjacent link not below")
            for z in universe.elements:
                if z != hi and z != lo and nat_leq(lo, z) and nat_leq(z, hi):
                    return VerificationReport(
                        False, checked, (lo, z, hi), note="element strictly between chain links"
                    )
            checked += 1
    return VerificationReport(True, checked, note=note)


def _translate(x: Elem, n: int) -> Elem:
    """(i, j, k) -> (i, j, k - n), the map induced by a translate offset n."""
    return ZERO if x is ZERO else AtomElem(x.i, x.j, x.k - n)


def check_isomorphism_transport(
    f1: AtomicFamily, f2: AtomicFamily, bound: int
) -> VerificationReport:
    """Verify the translate-induced map is an injective homomorphism.

    The map (i, j, k) -> (i, j, k - n) shifts only the atom by the
    translate offset n.  The product condition j1 + k1 == i2 + k2 and both
    product cases commute with that shift, so the map is total on f1.
    Before the sweep, every image must carry an atom of f2: the first
    window element whose image leaves f2 fails with checked 0.
    """
    n = are_translate_equivalent(f1, f2)
    if n is None:
        raise NotTranslateEquivalentError(
            f"supports {f1.support} and {f2.support} are not translates"
        )
    elems = elements_upto(f1, bound)
    for x in elems:
        image = _translate(x, n)
        if image is not ZERO and image.k not in f2.support:
            return VerificationReport(False, 0, (x, image),
                                      note="transport leaves the target family")
    return check_injective_homomorphism(elems, lambda x: _translate(x, n),
                                        _mul, _mul, "transport", f"offset n={n}")


def maximal_chain_census(f: AtomicFamily, bound: int) -> dict[int, int]:
    """Count maximal idempotent chains by length, tops at coordinate <= bound.

    A chain topped at (i, i, {k}) is maximal iff no larger support element
    lies within i of k; that count is the gap to the successor, capped by
    the window.  This tally separates non-translate-equivalent supports.
    """
    counts: dict[int, int] = {}
    for k in census_atoms(f, bound):
        succ = f.support.successor(k)
        tops = bound + 1 if succ is None else min(bound + 1, succ - k)
        counts[f.support.index_of(k) + 2] = tops
    return counts


def check_chain_census_invariance(
    f1: AtomicFamily, f2: AtomicFamily, bound: int
) -> VerificationReport:
    """Chain lengths survive the translate map; censuses separate non-translates.

    Translate-equivalent supports: every idempotent (i, i, {k}) of the
    census of f1 at this bound is carried by (i, i, k) -> (i, i, k - n) to
    an idempotent of f2 whose maximal chain has the same length.  A
    transported atom outside the support of f2 is a mismatch too.
    Otherwise the maximal chain censuses at equal bounds must diverge at
    some length (guaranteed for large enough bound when both supports are
    finite explicit).
    """
    n = are_translate_equivalent(f1, f2)
    if n is not None:
        checked = 0
        for k in census_atoms(f1, bound):
            for i in range(bound + 1):
                x = AtomElem(i, i, k)
                tx = _translate(x, n)
                if not (
                    tx.k in f2.support
                    and len(maximal_chain_down(x, f1)) == len(maximal_chain_down(tx, f2))
                ):
                    return VerificationReport(
                        False, checked, (x, tx),
                        note="chain lengths of transported idempotents disagree",
                    )
                checked += 1
        return VerificationReport(
            True, checked, note=f"translate offset n={n}; transported chain lengths agree"
        )
    m1 = maximal_chain_census(f1, bound)
    m2 = maximal_chain_census(f2, bound)
    sizes = len(m1) + len(m2)
    L = min((L for L in m1.keys() | m2.keys() if m1.get(L, 0) != m2.get(L, 0)), default=None)
    if L is None:
        note = "not translates, but no census divergence up to this bound; increase it"
        return VerificationReport(False, sizes, (m1, m2), note=note)
    return VerificationReport(True, sizes, note=f"not translates; maximal chain censuses "
                              f"diverge at length {L}: {m1.get(L, 0)} vs {m2.get(L, 0)}")
