from itertools import product

import pytest
from hypothesis import given, settings

import strategies as sts
from brandt_omega.brandt import BrandtElem, restricted_universe
from brandt_omega.core import ZERO
from brandt_omega.errors import InvalidElementError
from brandt_omega.topology import (
    ADJOINED,
    AcNbhd,
    MSeq,
    Tau1Nbhd,
    ac_complement_size,
    ac_contains,
    check_continuity_tau1,
    check_inversion_ac,
    check_prop49_condition,
    check_shift_continuity_ac,
    extended_multiply,
    find_zero_witness,
    mseq_nbhd_contains,
    phi,
    psi,
    tau1_annihilation_check,
    tau1_contains,
    tau1_self_product_check,
)


class TestAcNbhd:
    def test_membership(self):
        u = AcNbhd(frozenset({(3, 4)}))
        assert ac_contains(u, BrandtElem(3, 1, 5))
        assert not ac_contains(u, BrandtElem(3, 1, 4))
        assert ac_contains(u, ZERO)
        assert ac_contains(AcNbhd(frozenset()), ZERO)

    def test_complement_size(self, fam013):
        assert ac_complement_size(AcNbhd(frozenset({(2, 5)})), fam013) == 2
        assert ac_complement_size(AcNbhd(frozenset()), fam013) == 0
        assert ac_complement_size(AcNbhd(frozenset({(0, 0), (1, 1)})), fam013) == 3

    def test_complement_matches_enumeration(self, fam013):
        u = AcNbhd(frozenset({(2, 5), (1, 3)}))
        removed = [
            e for e in restricted_universe(fam013, 8)
            if e is not ZERO and not ac_contains(u, e)
        ]
        assert len(removed) == ac_complement_size(u, fam013)

    def test_rejects_negative_pairs(self):
        with pytest.raises(InvalidElementError):
            AcNbhd(frozenset({(-1, 2)}))


class TestAcContinuity:
    def test_example(self, fam013):
        u = AcNbhd(frozenset({(2, 5)}))
        r = check_shift_continuity_ac(u, BrandtElem(3, 1, 4), fam013, 12)
        assert r.passed and r.checked > 0

    def test_whole_space(self, fam013):
        r = check_shift_continuity_ac(AcNbhd(frozenset()), BrandtElem(1, 0, 2), fam013, 10)
        assert r.passed

    def test_zero_fiber_exclusion(self, fam013):
        u = AcNbhd(frozenset({(0, 0)}))
        r = check_shift_continuity_ac(u, BrandtElem(0, 0, 0), fam013, 12)
        assert r.passed

    def test_rejects_zero_translator(self, fam013):
        with pytest.raises(InvalidElementError):
            check_shift_continuity_ac(AcNbhd(frozenset()), ZERO, fam013, 5)

    def test_inversion(self, fam013):
        assert check_inversion_ac(AcNbhd(frozenset({(2, 5)})), fam013, 12).passed
        symmetric = AcNbhd(frozenset({(1, 1), (2, 2)}))
        assert check_inversion_ac(symmetric, fam013, 10).passed
        assert check_inversion_ac(AcNbhd(frozenset({(0, 3), (1, 4)})), fam013, 12).passed


class TestTau1:
    def test_membership(self):
        u = Tau1Nbhd(3)
        assert tau1_contains(u, BrandtElem(5, 1, 7))
        assert not tau1_contains(u, BrandtElem(5, 1, 4))
        assert not tau1_contains(u, BrandtElem(2, 0, 9))
        assert tau1_contains(u, ZERO)

    def test_predicate_matches_fiber_union(self, fam013):
        from brandt_omega.brandt import fiber

        bound = 8
        for n in (0, 1, 3):
            u = Tau1Nbhd(n)
            members = {
                e for e in restricted_universe(fam013, bound)
                if e is not ZERO and tau1_contains(u, e)
            }
            union = {
                e
                for i in range(n, bound + 1)
                for j in range(i + 1, bound + 1)
                for e in fiber(i, j, fam013)
            }
            assert members == union

    def test_annihilation_example(self, fam013):
        r = tau1_annihilation_check(BrandtElem(2, 1, 4), fam013, 15)
        assert r.passed and "n=5" in r.note

    def test_self_product_example(self, fam013):
        r = tau1_self_product_check(Tau1Nbhd(3), fam013, 12)
        assert r.passed

    def test_combined_and_zero(self, fam013):
        assert check_continuity_tau1(Tau1Nbhd(3), BrandtElem(2, 1, 4), fam013, 10).passed
        assert check_continuity_tau1(Tau1Nbhd(3), ZERO, fam013, 8).passed


class TestPhiPsi:
    def test_examples(self):
        assert phi(BrandtElem(3, 1, 5)) == BrandtElem(3, 1, 3)
        assert psi(BrandtElem(3, 1, 5)) == BrandtElem(5, 1, 5)
        assert phi(ZERO) is ZERO and psi(ZERO) is ZERO
        e = BrandtElem(4, 0, 4)
        assert phi(e) == e and psi(e) == e

    @given(sts.fam_and_brandt(n=1, allow_zero=False))
    def test_products_match(self, fe):
        from brandt_omega.brandt import brandt_invert, brandt_multiply

        _, (x,) = fe
        assert phi(x) == brandt_multiply(x, brandt_invert(x))
        assert psi(x) == brandt_multiply(brandt_invert(x), x)
        assert brandt_multiply(x, psi(x)) == x


class TestProp49:
    def test_tau1_violated(self, fam013):
        # (5,0,7) lies in U_1 and has phi-image (5,0,5)
        assert not check_prop49_condition(Tau1Nbhd(1), [BrandtElem(5, 0, 5)], fam013, 20)

    def test_excluding_row_col_5(self, fam013):
        pairs = {(5, j) for j in range(21)} | {(i, 5) for i in range(21)}
        u = AcNbhd(frozenset(pairs))
        assert check_prop49_condition(u, [BrandtElem(5, 0, 5)], fam013, 20)

    def test_empty_m(self, fam013):
        assert check_prop49_condition(Tau1Nbhd(1), [], fam013, 10)

    def test_rejects_non_idempotent(self, fam013):
        with pytest.raises(InvalidElementError):
            check_prop49_condition(Tau1Nbhd(1), [BrandtElem(1, 0, 2)], fam013, 5)

    def test_rejects_negative_bound(self, fam013):
        # a negative bound sweeps nothing, so it would pass vacuously
        with pytest.raises(InvalidElementError, match="bound must be a natural"):
            check_prop49_condition(Tau1Nbhd(1), [BrandtElem(5, 0, 5)], fam013, -3)


class TestZeroWitness:
    def test_examples(self):
        a = BrandtElem(2, 1, 4)
        assert find_zero_witness(a, [BrandtElem(5, 0, 6), BrandtElem(4, 1, 7)]) == BrandtElem(5, 0, 6)
        assert find_zero_witness(a, [BrandtElem(4, 0, 2)]) is None
        assert find_zero_witness(a, []) is None

    def test_rejects_zero(self):
        with pytest.raises(InvalidElementError):
            find_zero_witness(ZERO, [BrandtElem(1, 0, 2)])
        with pytest.raises(InvalidElementError):
            find_zero_witness(BrandtElem(1, 0, 2), [ZERO])

    @given(sts.fam_and_brandt(n=5, span=8, allow_zero=False))
    @settings(max_examples=60)
    def test_succeeds_with_spread_rows_and_cols(self, fe):
        _, elems = fe
        a, D = elems[0], elems[1:]
        rows = {d.row for d in D}
        cols = {d.col for d in D}
        if len(rows) >= 2 and len(cols) >= 2:
            assert find_zero_witness(a, D) is not None


class TestExtended:
    def test_adjoined_products_are_zero(self):
        assert extended_multiply(ADJOINED, ADJOINED) is ZERO
        assert extended_multiply(ADJOINED, BrandtElem(3, 1, 5)) is ZERO
        assert extended_multiply(BrandtElem(3, 1, 5), ADJOINED) is ZERO

    def test_delegates_inside(self):
        got = extended_multiply(BrandtElem(2, 1, 4), BrandtElem(4, 3, 5))
        assert got == BrandtElem(2, 1, 5)

    def test_associative_with_adjoined(self, fam013):
        univ = restricted_universe(fam013, 2) + [ADJOINED]
        for a, b, c in product(univ, repeat=3):
            lhs = extended_multiply(extended_multiply(a, b), c)
            rhs = extended_multiply(a, extended_multiply(b, c))
            assert lhs == rhs


class TestMSeq:
    ENTRIES = (BrandtElem(1, 0, 2), BrandtElem(3, 1, 4), BrandtElem(5, 0, 6))

    def test_contains(self):
        seq = MSeq(self.ENTRIES)
        assert mseq_nbhd_contains(seq, 2, BrandtElem(3, 1, 4))
        assert not mseq_nbhd_contains(seq, 3, BrandtElem(3, 1, 4))
        assert mseq_nbhd_contains(seq, 1, ADJOINED)
        assert mseq_nbhd_contains(seq, 3, ADJOINED)

    def test_index_errors(self):
        seq = MSeq(self.ENTRIES)
        with pytest.raises(IndexError):
            mseq_nbhd_contains(seq, 0, ADJOINED)
        with pytest.raises(IndexError):
            mseq_nbhd_contains(seq, 4, ADJOINED)

    def test_interleaving_enforced(self):
        with pytest.raises(InvalidElementError):
            MSeq((BrandtElem(2, 0, 1),))  # row >= col
        with pytest.raises(InvalidElementError):
            MSeq((BrandtElem(1, 0, 4), BrandtElem(3, 0, 5)))  # overlap

    def test_validate_over(self, fam013):
        MSeq(self.ENTRIES).validate_over(fam013)
        bad = MSeq((BrandtElem(1, 0, 2), BrandtElem(3, 2, 4)))
        with pytest.raises(InvalidElementError):
            bad.validate_over(fam013)
