import dataclasses
import random

import pytest

from brandt_omega import brandt, topology, verification
from brandt_omega.brandt import (
    BRANDT,
    BrandtElem,
    brandt_multiply,
    embed,
    restricted_universe,
    verify_embedding_homomorphism,
    verify_restricted_closed,
)
from brandt_omega.core import (
    ATOMS,
    AtomElem,
    ZERO,
    _mul,
    elements_upto,
    multiply,
    nat_leq,
    nat_leq_definitional,
)
from brandt_omega.errors import InvalidElementError, NotTranslateEquivalentError
from brandt_omega.families import AtomicFamily, SupportSet, parse_family
from brandt_omega.report import VerificationReport
from brandt_omega.topology import Tau1Nbhd, tau1_self_product_check
from brandt_omega.verification import (
    VERIFY_CHECKS,
    BoundedUniverse,
    check_associativity,
    check_chain_census_invariance,
    check_chain_structure,
    check_inverse_axioms,
    check_isomorphism_transport,
    check_order_equivalence,
    maximal_chain_census,
)

FAMS = [
    AtomicFamily(SupportSet((0,))),
    AtomicFamily(SupportSet((0, 1, 3))),
    AtomicFamily(SupportSet((2, 5))),
    AtomicFamily(SupportSet((0,), 4)),
]


def naive_associativity(universe, product):
    """The memoised triple-by-triple sweep: (passed, checked, counterexample)."""
    table = {}

    def mul(a, b):
        key = (a, b)
        r = table.get(key)
        if r is None:
            r = table[key] = product(a, b)
        return r

    elems = universe.elements
    checked = 0
    for a in elems:
        for b in elems:
            ab = mul(a, b)
            for c in elems:
                if mul(ab, c) != mul(a, mul(b, c)):
                    return False, checked, (a, b, c)
                checked += 1
    return True, checked, None


def naive_order_equivalence(universe):
    """The pairwise sweep against nat_leq_definitional: (passed, checked, counterexample)."""
    elems = universe.elements
    checked = 0
    for x in elems:
        for y in elems:
            if verification.nat_leq(x, y) != nat_leq_definitional(x, y, universe.family):
                return False, checked, (x, y)
            checked += 1
    return True, checked, None


def naive_homomorphism(elements, phi, src_mul, dst_mul):
    """Collision search, then the pairwise product sweep: (passed, checked, counterexample)."""
    for pos, x in enumerate(elements):
        for w in elements[:pos]:
            if phi(w) == phi(x):
                return False, 0, (w, x)
    checked = 0
    for x in elements:
        for y in elements:
            if phi(src_mul(x, y)) != dst_mul(phi(x), phi(y)):
                return False, checked, (x, y)
            checked += 1
    return True, checked, None


def corrupted_at(mul, p, q, nonzero):
    """mul with the one pair (p, q) sent to a wrong value: the zero, or
    `nonzero` where the true product is the zero."""

    def corrupt(a, b):
        r = mul(a, b)
        if a == p and b == q:
            return nonzero if r is ZERO else ZERO
        return r

    return corrupt


def sent_to(mul, p, q, wrong):
    """mul with the one pair (p, q) sent to `wrong`."""
    return lambda a, b: wrong if a == p and b == q else mul(a, b)


def outcome(report):
    return report.passed, report.checked, report.counterexample


def single_pair_corruption(universe, rng):
    """The universe's product with one pair (p, q) sent to a wrong value.

    p is a window element or a product of two, so the sweep asks for the
    pair; the wrong value is another window element or a product of two,
    which may lie outside the window.
    """
    mul = universe.product()
    elems = universe.elements

    def pick():
        return rng.choice(elems) if rng.random() < 0.5 else mul(rng.choice(elems), rng.choice(elems))

    p, q = pick(), rng.choice(elems)
    if rng.random() < 0.5:
        p, q = q, p
    good = mul(p, q)
    wrong = pick()
    while wrong == good:
        wrong = rng.choice(elems)

    def corrupt(a, b):
        return wrong if a == p and b == q else mul(a, b)

    return corrupt


class TestBoundedUniverse:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    @pytest.mark.parametrize("bound", [0, 2, 4])
    def test_cardinality_formula(self, fam, bound):
        for ctor in (BoundedUniverse.atoms, BoundedUniverse.brandt):
            u = ctor(fam, bound)
            assert len(u.elements) == u.expected_size()
            assert u.elements[0] is ZERO

    @pytest.mark.parametrize("ctor", [BoundedUniverse.atoms, BoundedUniverse.brandt],
                             ids=["atoms", "brandt"])
    def test_rejects_negative_bound(self, fam013, ctor):
        # at bound -1 only the zero would be left, and every sweep would pass on it
        with pytest.raises(InvalidElementError, match="bound must be a natural"):
            check_associativity(ctor(fam013, -1))


class TestAssociativity:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    def test_passes_both_forms(self, fam):
        assert check_associativity(BoundedUniverse.atoms(fam, 2)).passed
        assert check_associativity(BoundedUniverse.brandt(fam, 3)).passed

    def test_corrupted_product_caught(self, fam013):
        def corrupt(a, b):
            # flips the atom carried by the strict left case
            r = _mul(a, b)
            if r is not ZERO and a is not ZERO and b is not ZERO and a.j < b.i:
                return AtomElem(r.i, r.j, a.k)
            return r

        u = BoundedUniverse.atoms(fam013, 2)
        r = check_associativity(u, product=corrupt)
        assert not r.passed and r.counterexample is not None

        again = check_associativity(u, product=corrupt)
        assert again.counterexample == r.counterexample

        # lexicographic-first: nothing earlier in the sweep order fails
        assert outcome(r) == naive_associativity(u, corrupt)
        assert r.checked == 767

    DIFFERENTIAL = [
        ("atoms", (0, 1, 3), None, 3),
        ("atoms", (0,), 4, 3),
        ("atoms", (2, 5), None, 4),
        ("brandt", (0, 1, 3), None, 3),
    ]

    @pytest.mark.parametrize("kind, explicit, tail, bound", DIFFERENTIAL,
                             ids=["013@3", "0,+4@3", "25@4", "brandt013@3"])
    def test_matches_naive_sweep(self, kind, explicit, tail, bound):
        fam = AtomicFamily(SupportSet(explicit, tail))
        u = getattr(BoundedUniverse, kind)(fam, bound)
        assert outcome(check_associativity(u)) == naive_associativity(u, u.product())
        rng = random.Random(f"{kind}{explicit}{tail}{bound}")
        for _ in range(8):
            corrupt = single_pair_corruption(u, rng)
            expected = naive_associativity(u, corrupt)
            assert outcome(check_associativity(u, product=corrupt)) == expected

    def test_products_are_the_naive_sweeps_pairs(self, fam013):
        # a sweep that checks less is not faster: the tables ask for every
        # pair the memoised triple sweep asks for, each exactly once
        u = BoundedUniverse.atoms(fam013, 3)
        calls, asked = [], []
        assert check_associativity(u, product=lambda a, b: calls.append((a, b)) or _mul(a, b)).passed
        naive_associativity(u, lambda a, b: asked.append((a, b)) or _mul(a, b))
        assert len(calls) == 6321
        assert set(calls) == set(asked) and len(asked) == 6321

    UNIVERSES = [("atoms", (0, 1, 3), 3), ("atoms", (2, 5), 3), ("brandt", (0, 1, 3), 3)]

    @staticmethod
    def beyond(u):
        """A nonzero element past the window's bound."""
        x, b = u.elements[1], u.bound + 1
        return AtomElem(b, b + 1, x.k) if u.kind is ATOMS else BrandtElem(b, x.val, b + 1)

    # name -> (product for the universe u, whether the product is associative)
    PRODUCTS = {
        "left-zero-band": (lambda u: lambda a, b: a, True),
        "right-zero-band": (lambda u: lambda a, b: b, True),
        "constant-zero": (lambda u: lambda a, b: ZERO, True),
        "constant-nonzero": (lambda u: lambda a, b: u.elements[-1], True),
        "zero-times-c": (lambda u: sent_to(u.product(), ZERO, u.elements[len(u.elements) // 2],
                                           u.elements[1]), False),
        # zero elsewhere, so only the zero's own row can show the defect
        "null-but-zero-times-c": (lambda u: sent_to(lambda a, b: ZERO, ZERO,
                                                    u.elements[len(u.elements) // 2],
                                                    u.elements[1]), False),
        "a-times-zero": (lambda u: sent_to(u.product(), u.elements[len(u.elements) // 3], ZERO,
                                           u.elements[1]), False),
        "lands-outside": (lambda u: sent_to(u.product(), u.elements[1], u.elements[2],
                                            TestAssociativity.beyond(u)), False),
    }

    @pytest.mark.parametrize("name", PRODUCTS)
    @pytest.mark.parametrize("kind, explicit, bound", UNIVERSES,
                             ids=["013@3", "25@3", "brandt013@3"])
    def test_structured_products_match_naive_sweep(self, kind, explicit, bound, name):
        # whole rows constant (bands, constant products), a zero row that is
        # not constant, and a product interned outside the window
        u = getattr(BoundedUniverse, kind)(AtomicFamily(SupportSet(explicit)), bound)
        make, associative = self.PRODUCTS[name]
        product = make(u)
        expected = naive_associativity(u, product)
        assert expected[0] is associative
        assert outcome(check_associativity(u, product=product)) == expected


class TestVerifyCheckCounts:
    """Every `verify` sweep passes on the supports of scripts/verify_sweep.py
    at bound 4 with a `checked` count from its closed form, so a change that
    sweeps less (or more) shows here."""

    B = 4
    # support text -> its atoms up to B, written out by hand
    ATOMS_UPTO_B = {"0": (0,), "0,1,3": (0, 1, 3), "2,5": (2,), "0,+4": (0, 4), "1,2,+6": (1, 2)}

    @pytest.mark.parametrize("text", ATOMS_UPTO_B)
    def test_checked_is_the_closed_form(self, text):
        b, atoms = self.B, self.ATOMS_UPTO_B[text]

        def upto(m):
            return sum(1 for k in atoms if k <= m)

        N = 1 + (b + 1) ** 2 * upto(b)  # the pair-with-atom window
        idems = 1 + (b + 1) * upto(b)  # its idempotents, I
        R = 1 + sum(upto(min(r, c)) for r in range(b + 1) for c in range(b + 1))
        expected = {
            "associativity": N ** 3,
            "inverse-axioms": N + idems ** 2,
            "order-equivalence": N ** 2,
            "embedding-homomorphism": N ** 2,
            "restricted-closure": R ** 2,
        }
        fam = parse_family(text)
        got = {}
        for name, run, _kind in VERIFY_CHECKS:
            r = run(fam, b)
            assert r.passed, (name, r)
            got[name] = r.checked
        assert got == expected


class TestInverseAxioms:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    def test_passes_both_forms(self, fam):
        assert check_inverse_axioms(BoundedUniverse.atoms(fam, 3)).passed
        assert check_inverse_axioms(BoundedUniverse.brandt(fam, 4)).passed

    def test_zero_only_degenerate(self, fam013):
        u = BoundedUniverse(fam013, 0, ATOMS, (ZERO,))
        assert check_inverse_axioms(u).passed

    @staticmethod
    def naive(elements, mul, inv, idem):
        """Both axioms per element, then every ordered pair of idempotents:
        (passed, checked, counterexample, note)."""
        for pos, x in enumerate(elements):
            if mul(mul(x, inv(x)), x) != x or mul(mul(inv(x), x), inv(x)) != inv(x):
                return False, pos, (x,), "inverse axiom failed"
        pairs = [(e, g) for e in elements if idem(e) for g in elements if idem(g)]
        for pos, (e, g) in enumerate(pairs):
            if mul(e, g) != mul(g, e):
                return False, len(elements) + pos, (e, g), "idempotents do not commute"
        return True, len(elements) + len(pairs), None, None

    # the defects reach the sweep through a replaced kind, never a patched global
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", [ATOMS, BRANDT], ids=["atoms", "brandt"])
    def test_broken_axiom_caught(self, fam013, kind, seed):
        elems = (elements_upto if kind is ATOMS else restricted_universe)(fam013, 3)
        x = random.Random(seed).choice(elems[1:])
        corrupt = sent_to(kind.mul, x, kind.inv(x), ZERO)  # x x^-1 x becomes the zero
        u = BoundedUniverse(fam013, 3, dataclasses.replace(kind, mul=corrupt), tuple(elems))
        r = check_inverse_axioms(u)
        assert (r.passed, r.checked, r.counterexample, r.note) == self.naive(
            elems, corrupt, kind.inv, kind.idem)
        # x^-1 meets the pair (x, x^-1) too, so it fails first when it comes first
        assert r.counterexample in ((x,), (kind.inv(x),))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", [ATOMS, BRANDT], ids=["atoms", "brandt"])
    def test_noncommuting_idempotents_caught(self, fam013, kind, seed):
        elems = (elements_upto if kind is ATOMS else restricted_universe)(fam013, 3)
        e, g = random.Random(seed).sample([x for x in elems[1:] if kind.idem(x)], 2)
        # the axioms never multiply two distinct idempotents, so only the
        # commuting pairs can see this
        corrupt = corrupted_at(kind.mul, e, g, e)
        u = BoundedUniverse(fam013, 3, dataclasses.replace(kind, mul=corrupt), tuple(elems))
        r = check_inverse_axioms(u)
        assert (r.passed, r.checked, r.counterexample, r.note) == self.naive(
            elems, corrupt, kind.inv, kind.idem)
        assert not r.passed and r.counterexample in ((e, g), (g, e))


class TestOrderEquivalence:
    @pytest.mark.parametrize("support", [(0, 1, 3), (0,)])
    def test_passes(self, support):
        fam = AtomicFamily(SupportSet(support))
        assert check_order_equivalence(BoundedUniverse.atoms(fam, 3)).passed

    def test_needs_atoms_universe(self, fam013):
        with pytest.raises(InvalidElementError):
            check_order_equivalence(BoundedUniverse.brandt(fam013, 2))

    @pytest.mark.parametrize("explicit, tail", [((0, 1, 3), None), ((0,), 4)], ids=["013", "0,+4"])
    def test_matches_pairwise_sweep(self, explicit, tail):
        u = BoundedUniverse.atoms(AtomicFamily(SupportSet(explicit, tail)), 4)
        r = check_order_equivalence(u)
        assert r.passed and outcome(r) == naive_order_equivalence(u)

    def test_wrong_criterion_caught(self, fam013, monkeypatch):
        def no_j_check(x, y):
            # drops the condition on the second coordinate
            if x is ZERO or y is ZERO:
                return x is ZERO
            p = y.k - x.k
            return p >= 0 and x.i - y.i == p

        monkeypatch.setattr(verification, "nat_leq", no_j_check)
        u = BoundedUniverse.atoms(fam013, 4)
        r = check_order_equivalence(u)
        assert not r.passed and r.note == "order criteria disagree"
        assert outcome(r) == naive_order_equivalence(u)
        assert r.counterexample == (AtomElem(0, 0, 0), AtomElem(0, 1, 0))


class TestChainStructure:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    def test_passes_and_documents_shift_policy(self, fam):
        r = check_chain_structure(BoundedUniverse.atoms(fam, 3))
        assert r.passed
        assert "cumulative" in r.note and "per-step" in r.note

    @staticmethod
    def per_step_chain(x, f):
        """x, then one link per smaller atom, each shifted from x by its own
        step to the atom above it instead of by the running sum."""
        ks = f.support.upto(x.k)
        steps = zip(ks[:0:-1], ks[-2::-1])  # (atom, the atom below it), descending
        return [x, *(AtomElem(x.i + hi - lo, x.j + hi - lo, lo) for hi, lo in steps), ZERO]

    @staticmethod
    def naive(universe, chain_of):
        """Every chain link against the definitional order, every element
        checked as a point between: (passed, checked, counterexample, note)."""
        f, elems = universe.family, universe.elements

        def below(a, b):
            return nat_leq_definitional(a, b, f)

        checked = 0
        for x in elems[1:]:
            chain = chain_of(x, f)
            if len(chain) != f.support.index_of(x.k) + 2 or chain[-1] is not ZERO:
                return False, checked, (x,), "chain length mismatch"
            for hi, lo in zip(chain, chain[1:]):
                if lo == hi or not below(lo, hi):
                    return False, checked, (hi, lo), "adjacent link not below"
                for z in elems:
                    if z not in (hi, lo) and below(lo, z) and below(z, hi):
                        return False, checked, (lo, z, hi), "element strictly between chain links"
                checked += 1
        return True, checked, None, None

    @pytest.mark.parametrize("explicit, tail, bound", [((0, 1, 3), None, 3), ((0,), 4, 5)],
                             ids=["013@3", "0,+4@5"])
    def test_per_step_shifts_caught(self, monkeypatch, explicit, tail, bound):
        u = BoundedUniverse.atoms(AtomicFamily(SupportSet(explicit, tail)), bound)
        monkeypatch.setattr(verification, "maximal_chain_down", self.per_step_chain)
        r = check_chain_structure(u)
        expected = self.naive(u, self.per_step_chain)
        assert not expected[0]
        assert (r.passed, r.checked, r.counterexample, r.note) == expected
        # per-step and cumulative agree on the first link; the second is off
        hi, lo = r.counterexample
        assert r.note == "adjacent link not below" and not nat_leq(lo, hi)

    @staticmethod
    def seeded_chain(p, f, links):
        """maximal_chain_down with the chain of p replaced by links(chain)."""
        true_chain = verification.maximal_chain_down

        def chain_of(x, fam):
            chain = true_chain(x, fam)
            return links(chain) if x == p else chain

        return chain_of

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("explicit, tail, bound", [((0, 1, 3), None, 3), ((0,), 4, 4)],
                             ids=["013@3", "0,+4@4"])
    def test_length_mismatch_caught(self, monkeypatch, seed, explicit, tail, bound):
        u = BoundedUniverse.atoms(AtomicFamily(SupportSet(explicit, tail)), bound)
        p = random.Random(seed).choice(u.elements[1:])
        chain_of = self.seeded_chain(p, u.family, lambda chain: chain + [ZERO])
        monkeypatch.setattr(verification, "maximal_chain_down", chain_of)
        r = check_chain_structure(u)
        assert (r.passed, r.checked, r.counterexample, r.note) == self.naive(u, chain_of)
        assert r.counterexample == (p,) and r.note == "chain length mismatch"

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("explicit, tail, bound", [((0, 1, 3), None, 3), ((0,), 4, 4)],
                             ids=["013@3", "0,+4@4"])
    def test_skipped_link_caught(self, monkeypatch, seed, explicit, tail, bound):
        # p's chain drops straight to the zero, at its true length; its true
        # second link lies in the window, strictly between p and the zero
        u = BoundedUniverse.atoms(AtomicFamily(SupportSet(explicit, tail)), bound)
        window = set(u.elements)
        skippable = [x for x in u.elements[1:]
                     if verification.maximal_chain_down(x, u.family)[1] in window - {ZERO}]
        p = random.Random(seed).choice(skippable)
        chain_of = self.seeded_chain(p, u.family, lambda chain: chain[:1] + [ZERO] * (len(chain) - 1))
        monkeypatch.setattr(verification, "maximal_chain_down", chain_of)
        r = check_chain_structure(u)
        assert (r.passed, r.checked, r.counterexample, r.note) == self.naive(u, chain_of)
        assert r.counterexample[::2] == (ZERO, p) and r.note == "element strictly between chain links"


class TestIsomorphismTransport:
    def test_total_direction(self):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        r = check_isomorphism_transport(f1, f2, 4)
        assert r.passed and r.checked == len(elements_upto(f1, 4)) ** 2

    def test_reverse_direction_total(self):
        # the offset is positive this way; every pair is still checked
        f1 = AtomicFamily(SupportSet((2, 3, 5)))
        f2 = AtomicFamily(SupportSet((0, 1, 3)))
        r = check_isomorphism_transport(f1, f2, 4)
        assert r.passed and r.checked == len(elements_upto(f1, 4)) ** 2

    def test_identity(self, fam013):
        r = check_isomorphism_transport(fam013, fam013, 3)
        assert r.passed and "n=0" in r.note

    def test_rejects_non_equivalent(self, fam013):
        other = AtomicFamily(SupportSet((0, 2, 3)))
        with pytest.raises(NotTranslateEquivalentError):
            check_isomorphism_transport(fam013, other, 3)


class TestHomomorphismDefects:
    """Seeded defects in the embedding and transport sweeps.

    Both share one sweep; each caller must report a non-injective map
    before any product, and a corrupted product at its first failing pair.
    """

    F1 = AtomicFamily(SupportSet((0, 1, 3)))
    F2 = AtomicFamily(SupportSet((2, 3, 5)))  # F1 translated by n = -2

    def test_embedding_not_injective(self, monkeypatch):
        real = brandt.embed
        monkeypatch.setattr(
            brandt, "embed", lambda x, f: ZERO if x == AtomElem(0, 0, 1) else real(x, f)
        )
        r = verify_embedding_homomorphism(self.F1, 3)
        assert (r.passed, r.checked, r.counterexample, r.note) == (
            False, 0, (ZERO, AtomElem(0, 0, 1)), "embedding not injective"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_embedding_corrupted_product(self, monkeypatch, seed):
        f = self.F1
        univ = elements_upto(f, 3)
        rng = random.Random(seed)
        x, y = rng.choice(univ), rng.choice(univ)
        corrupt = corrupted_at(brandt_multiply, embed(x, f), embed(y, f), BrandtElem(0, 0, 0))
        monkeypatch.setattr(brandt, "brandt_multiply", corrupt)
        r = verify_embedding_homomorphism(f, 3)
        expected = naive_homomorphism(
            univ, lambda e: embed(e, f), lambda a, b: multiply(a, b, f), corrupt
        )
        assert (r.passed, r.checked, r.counterexample, r.note) == (
            *expected, "embedding not a homomorphism"
        )
        # the embedding is injective, so (x, y) is the only failing pair
        assert r.counterexample == (x, y)
        assert r.checked == univ.index(x) * len(univ) + univ.index(y)

    def test_transport_not_injective(self, monkeypatch):
        # every transported element lands on the least atom of F2's frame
        monkeypatch.setattr(verification, "AtomElem", lambda i, j, k: AtomElem(i, j, 0))
        r = check_isomorphism_transport(self.F1, self.F2, 3)
        assert (r.passed, r.checked, r.counterexample, r.note) == (
            False, 0, (AtomElem(0, 0, 0), AtomElem(0, 0, 1)), "transport not injective"
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_transport_corrupted_product(self, monkeypatch, seed):
        univ = elements_upto(self.F1, 3)
        rng = random.Random(seed)
        # atoms 0 and 1 are outside the image (atoms 2, 3, 5), so the
        # corrupted pair is met only as a source product
        x = rng.choice([e for e in univ if e is not ZERO and e.k < 2])
        y = rng.choice(univ)
        corrupt = corrupted_at(_mul, x, y, AtomElem(0, 0, 0))
        monkeypatch.setattr(verification, "_mul", corrupt)
        r = check_isomorphism_transport(self.F1, self.F2, 3)

        def transport(e):
            return ZERO if e is ZERO else AtomElem(e.i, e.j, e.k + 2)

        expected = naive_homomorphism(univ, transport, corrupt, corrupt)
        assert (r.passed, r.checked, r.counterexample, r.note) == (
            *expected, "transport not a homomorphism"
        )
        assert r.counterexample == (x, y)
        assert r.checked == univ.index(x) * len(univ) + univ.index(y)


class TestClosureDefects:
    """Seeded defects in the shared pair-closure sweep.

    With the true product both callers always pass (min(val) <= min(row,
    col) holds for every product), so only a corrupted product can make
    them fail.  The corrupted pair sends its product to OUTSIDE, which is
    in neither the restricted set nor any tau1 neighbourhood.
    """

    F = AtomicFamily(SupportSet((0, 1, 3)))
    OUTSIDE = BrandtElem(1, 5, 0)

    @staticmethod
    def naive_closed(members, mul, contains):
        pairs = [(a, b) for a in members for b in members]
        for pos, (a, b) in enumerate(pairs):
            if not contains(mul(a, b)):
                return False, pos, (a, b)
        return True, len(pairs), None

    def corrupt(self, members, seed):
        rng = random.Random(seed)
        p, q = rng.choice(members), rng.choice(members)

        def mul(a, b):
            return self.OUTSIDE if (a, b) == (p, q) else brandt_multiply(a, b)

        return mul, (p, q)

    @pytest.mark.parametrize("seed", range(5))
    def test_restricted_closure(self, monkeypatch, seed):
        f, bound = self.F, 4
        window = restricted_universe(f, bound)
        mul, pair = self.corrupt(window, seed)
        monkeypatch.setattr(brandt, "brandt_multiply", mul)
        r = verify_restricted_closed(f, bound)

        def restricted(e):
            return e is ZERO or (e.val in f.support and e.val <= e.row and e.val <= e.col)

        expected = self.naive_closed(window, mul, restricted)
        assert (r.passed, r.checked, r.counterexample, r.note) == (
            *expected, "product left the restricted set"
        )
        assert r.counterexample == pair

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [0, 2])
    def test_tau1_self_product(self, monkeypatch, seed, n):
        f, bound = self.F, 6
        members = [e for e in restricted_universe(f, bound) if e is ZERO or n <= e.row < e.col]
        mul, pair = self.corrupt(members, seed)
        monkeypatch.setattr(topology, "brandt_multiply", mul)
        r = tau1_self_product_check(Tau1Nbhd(n), f, bound)
        expected = self.naive_closed(members, mul, lambda e: e is ZERO or n <= e.row < e.col)
        assert (r.passed, r.checked, r.counterexample, r.note) == (
            *expected, "self-product left the neighborhood"
        )
        assert r.counterexample == pair


class TestCensusInvariance:
    def test_equivalent_pair_agrees(self):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        r = check_chain_census_invariance(f1, f2, 6)
        assert r.passed and "agree" in r.note

    def test_counts_transported_idempotents(self):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        r = check_chain_census_invariance(f1, f2, 6)
        assert r.checked == 3 * 7  # three atoms, i = 0..6
        tail1 = AtomicFamily(SupportSet((0,), 4))
        tail2 = AtomicFamily(SupportSet((1,), 5))
        r = check_chain_census_invariance(tail1, tail2, 6)
        assert r.passed and r.checked == 7 * 7  # the first seven atoms of an infinite support

    def test_wrong_offset_caught(self, monkeypatch):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        monkeypatch.setattr(verification, "are_translate_equivalent", lambda a, b: -3)
        r = check_chain_census_invariance(f1, f2, 6)
        # (0,0,0) goes to (0,0,3), which tops a chain one link longer in f2
        assert not r.passed and r.checked == 0
        assert r.counterexample == (AtomElem(0, 0, 0), AtomElem(0, 0, 3))
        monkeypatch.setattr(verification, "are_translate_equivalent", lambda a, b: -1)
        r = check_chain_census_invariance(f1, f2, 6)
        # 1 is not an atom of f2
        assert not r.passed and r.counterexample == (AtomElem(0, 0, 0), AtomElem(0, 0, 1))

    def test_wrong_chain_length_caught(self, monkeypatch):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        real = verification.maximal_chain_down

        def short_in_f2(x, f):
            chain = real(x, f)
            return chain[1:] if f is f2 and x.k == 5 and x.i == 2 else chain

        monkeypatch.setattr(verification, "maximal_chain_down", short_in_f2)
        r = check_chain_census_invariance(f1, f2, 6)
        assert not r.passed and r.checked == 2 * 7 + 2
        assert r.counterexample == (AtomElem(2, 2, 3), AtomElem(2, 2, 5))

    def test_rejects_negative_bound(self, fam013):
        with pytest.raises(InvalidElementError, match="bound must be a natural"):
            check_chain_census_invariance(fam013, fam013, -1)

    def test_identity_trivial(self, fam0):
        assert check_chain_census_invariance(fam0, fam0, 5).passed

    def test_non_equivalent_diverges(self):
        f1 = AtomicFamily(SupportSet((0, 1)))
        f2 = AtomicFamily(SupportSet((0, 2)))
        r = check_chain_census_invariance(f1, f2, 8)
        assert r.passed and "diverge at length 2" in r.note

    def test_non_equivalent_bound_too_small(self):
        f1 = AtomicFamily(SupportSet((0, 1)))
        f2 = AtomicFamily(SupportSet((0, 2)))
        r = check_chain_census_invariance(f1, f2, 0)
        assert not r.passed and "increase" in r.note

    def test_maximal_census_rejects_negative_bound(self, fam013):
        with pytest.raises(InvalidElementError, match="bound must be a natural"):
            maximal_chain_census(fam013, -1)

    def test_maximal_census_values(self):
        assert maximal_chain_census(AtomicFamily(SupportSet((0, 1))), 8) == {2: 1, 3: 9}
        assert maximal_chain_census(AtomicFamily(SupportSet((0, 2))), 8) == {2: 2, 3: 9}


class TestReport:
    def test_failed_needs_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport(False, 3)

    def test_json_shape(self):
        r = VerificationReport(False, 7, (ZERO, AtomElem(1, 2, 0)), note="boom")
        d = r.to_json_dict(ATOMS.to_json)
        assert d == {
            "passed": False,
            "checked": 7,
            "counterexample": [{"zero": True}, {"i": 1, "j": 2, "k": 0}],
            "note": "boom",
        }
        assert VerificationReport(True, 1).to_json_dict(ATOMS.to_json)["counterexample"] is None
