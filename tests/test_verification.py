import pytest

from brandt_omega.core import ATOMS, AtomElem, ZERO, _mul, elements_upto
from brandt_omega.errors import InvalidElementError, NotTranslateEquivalentError
from brandt_omega.families import AtomicFamily, SupportSet
from brandt_omega.report import VerificationReport
from brandt_omega.verification import (
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


class TestBoundedUniverse:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    @pytest.mark.parametrize("bound", [0, 2, 4])
    def test_cardinality_formula(self, fam, bound):
        for ctor in (BoundedUniverse.atoms, BoundedUniverse.brandt):
            u = ctor(fam, bound)
            assert len(u.elements) == u.expected_size()
            assert u.elements[0] is ZERO


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
        elems = u.elements
        first = None
        for a in elems:
            for b in elems:
                for c in elems:
                    if corrupt(corrupt(a, b), c) != corrupt(a, corrupt(b, c)):
                        first = (a, b, c)
                        break
                if first:
                    break
            if first:
                break
        assert r.counterexample == first


class TestInverseAxioms:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    def test_passes_both_forms(self, fam):
        assert check_inverse_axioms(BoundedUniverse.atoms(fam, 3)).passed
        assert check_inverse_axioms(BoundedUniverse.brandt(fam, 4)).passed

    def test_zero_only_degenerate(self, fam013):
        u = BoundedUniverse(fam013, 0, ATOMS, (ZERO,))
        assert check_inverse_axioms(u).passed


class TestOrderEquivalence:
    @pytest.mark.parametrize("support", [(0, 1, 3), (0,)])
    def test_passes(self, support):
        fam = AtomicFamily(SupportSet(support))
        assert check_order_equivalence(BoundedUniverse.atoms(fam, 3)).passed

    def test_needs_atoms_universe(self, fam013):
        with pytest.raises(InvalidElementError):
            check_order_equivalence(BoundedUniverse.brandt(fam013, 2))


class TestChainStructure:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: str(f.support))
    def test_passes_and_documents_shift_policy(self, fam):
        r = check_chain_structure(BoundedUniverse.atoms(fam, 3))
        assert r.passed
        assert "cumulative" in r.note and "per-step" in r.note


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


class TestCensusInvariance:
    def test_equivalent_pair_agrees(self):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        r = check_chain_census_invariance(f1, f2, 6)
        assert r.passed and "agree" in r.note

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

    def test_maximal_census_values(self):
        assert maximal_chain_census(AtomicFamily(SupportSet((0, 1))), 8) == {2: 1, 3: 9}
        assert maximal_chain_census(AtomicFamily(SupportSet((0, 2))), 8) == {2: 2, 3: 9}


class TestReport:
    def test_failed_needs_counterexample(self):
        with pytest.raises(ValueError):
            VerificationReport(False, 3)

    def test_json_shape(self):
        r = VerificationReport(False, 7, (ZERO, AtomElem(1, 2, 0)), note="boom")
        d = r.to_json_dict()
        assert d == {
            "passed": False,
            "checked": 7,
            "counterexample": ["ZERO", "AtomElem(i=1, j=2, k=0)"],
            "note": "boom",
        }
        assert VerificationReport(True, 1).to_json_dict()["counterexample"] is None
