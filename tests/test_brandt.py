from itertools import product

import pytest
from hypothesis import given

import strategies as sts
from brandt_omega.brandt import (
    BrandtElem,
    brandt_invert,
    brandt_is_idempotent,
    brandt_multiply,
    brandt_to_json,
    embed,
    embed_inverse,
    fiber,
    format_brandt,
    in_restricted,
    parse_brandt,
    restricted_universe,
    verify_embedding_homomorphism,
    verify_restricted_closed,
)
from brandt_omega.core import AtomElem, ZERO, invert
from brandt_omega.errors import InvalidElementError, NotInImageError, ParseError
from brandt_omega.families import AtomicFamily, SupportSet


class TestBrandtMultiply:
    def test_examples(self):
        assert brandt_multiply(BrandtElem(2, 1, 4), BrandtElem(4, 3, 5)) == BrandtElem(2, 1, 5)
        assert brandt_multiply(BrandtElem(2, 1, 4), BrandtElem(3, 3, 5)) is ZERO
        assert brandt_multiply(ZERO, BrandtElem(1, 0, 1)) is ZERO


class TestRestricted:
    def test_examples(self, fam013):
        assert in_restricted(BrandtElem(3, 1, 5), fam013)
        assert not in_restricted(BrandtElem(3, 5, 5), AtomicFamily(SupportSet((0, 1, 3, 5))))
        assert in_restricted(ZERO, fam013)

    @pytest.mark.parametrize("support", [(0, 1, 3), (2, 5)])
    def test_closed_form_matches_parametrization(self, support):
        # oracle: (row, val, col) is an image point iff row-val and col-val
        # are naturals and val is in the support
        fam = AtomicFamily(SupportSet(support))
        for r, v, c in product(range(7), repeat=3):
            e = BrandtElem(r, v, c)
            param = v in fam.support and r - v >= 0 and c - v >= 0
            assert in_restricted(e, fam) == param

    @pytest.mark.parametrize("explicit, tail", [
        ((0, 1, 3), None), ((2, 5), None), ((0,), None), ((0, 2), 7), ((), 0), ((1, 2), 6),
    ])
    def test_universe_matches_naive_builder(self, explicit, tail):
        # oracle: every triple in the cube, filtered and sorted
        fam = AtomicFamily(SupportSet(explicit, tail))
        for bound in range(9):
            cube = (BrandtElem(*t) for t in product(range(bound + 1), repeat=3))
            naive = [ZERO] + sorted(e for e in cube if in_restricted(e, fam))
            assert restricted_universe(fam, bound) == naive

    def test_universe_sorted_and_restricted(self, fam013):
        univ = restricted_universe(fam013, 4)
        assert univ[0] is ZERO
        rest = univ[1:]
        assert all(in_restricted(e, fam013) for e in rest)
        assert rest == sorted(rest)


class TestElementType:
    """BrandtElem is a tuple subclass: results must still be BrandtElem,
    never a bare tuple, and must never equal an atom triple."""

    def test_results_are_brandt_elems(self, fam013):
        a, b = BrandtElem(2, 1, 4), BrandtElem(4, 0, 5)
        results = [
            brandt_multiply(a, b), brandt_invert(a), parse_brandt("(2;1;4)"),
            embed(AtomElem(1, 2, 1), fam013), *fiber(3, 5, fam013),
        ]
        assert [type(e) for e in results] == [BrandtElem] * 7
        assert brandt_multiply(a, a) is ZERO and brandt_invert(ZERO) is ZERO
        assert parse_brandt("O") is ZERO and embed(ZERO, fam013) is ZERO
        univ = restricted_universe(fam013, 6)
        assert univ[0] is ZERO and all(type(e) is BrandtElem for e in univ[1:])

    def test_never_equal_to_an_atom_triple(self):
        assert BrandtElem(1, 2, 3) != AtomElem(1, 2, 3)
        assert AtomElem(1, 2, 3) != BrandtElem(1, 2, 3)

    def test_immutable_with_field_repr(self):
        e = BrandtElem(1, 2, 3)
        with pytest.raises(AttributeError):
            e.row = 5
        assert repr(e) == "BrandtElem(row=1, val=2, col=3)"


class TestFiber:
    def test_examples(self, fam013):
        assert fiber(2, 5, fam013) == [BrandtElem(2, 0, 5), BrandtElem(2, 1, 5)]
        assert fiber(0, 0, fam013) == [BrandtElem(0, 0, 0)]
        fam1 = AtomicFamily(SupportSet((1,)))
        assert fiber(5, 7, fam1) == [BrandtElem(5, 1, 7)]

    @given(sts.families())
    def test_size_formula(self, fam):
        for r, c in product(range(6), repeat=2):
            assert len(fiber(r, c, fam)) == len(fam.support.upto(min(r, c)))

    def test_fiber_sizes(self, fam013, fam0):
        assert len(fiber(3, 3, fam013)) == 3
        assert len(fiber(0, 0, fam013)) == 1
        assert len(fiber(2, 1, fam013)) == 2
        assert all(len(fiber(r, c, fam0)) == 1 for r, c in product(range(5), repeat=2))

    def test_full_support_sizes(self):
        fam = AtomicFamily(SupportSet((), 0))
        for r, c in product(range(5), repeat=2):
            assert len(fiber(r, c, fam)) == min(r, c) + 1

    @pytest.mark.parametrize("bad", [2.5, True, -1, "3"])
    def test_rejects_non_natural_coordinates(self, fam013, bad):
        for row, col in ((bad, 5), (5, bad)):
            with pytest.raises(InvalidElementError, match="^fiber coordinates must be naturals$"):
                fiber(row, col, fam013)


class TestEmbedding:
    def test_examples(self, fam013):
        assert embed(AtomElem(2, 0, 1), fam013) == BrandtElem(3, 1, 1)
        assert embed(ZERO, fam013) is ZERO
        assert embed(AtomElem(0, 0, 3), fam013) == BrandtElem(3, 3, 3)

    def test_inverse_examples(self, fam013):
        assert embed_inverse(BrandtElem(3, 1, 1), fam013) == AtomElem(2, 0, 1)
        assert embed_inverse(ZERO, fam013) is ZERO
        with pytest.raises(NotInImageError):
            embed_inverse(BrandtElem(3, 5, 5), AtomicFamily(SupportSet((0, 1, 3, 5))))

    @given(sts.fam_and_elems(n=1))
    def test_roundtrip(self, fe):
        fam, (x,) = fe
        assert embed_inverse(embed(x, fam), fam) == x

    @given(sts.fam_and_brandt(n=1))
    def test_roundtrip_other_way(self, fe):
        fam, (e,) = fe
        assert embed(embed_inverse(e, fam), fam) == e

    @given(sts.fam_and_elems(n=1))
    def test_inversion_transport(self, fe):
        fam, (x,) = fe
        assert embed(invert(x), fam) == brandt_invert(embed(x, fam))

    def test_restricted_idempotents_are_embedded_diagonals(self, fam013):
        for e in restricted_universe(fam013, 5):
            idem = brandt_multiply(e, e) == e
            assert idem == brandt_is_idempotent(e)
            if e is not ZERO and idem:
                assert e.row == e.col and e.val <= e.row
                x = embed_inverse(e, fam013)
                assert x.i == x.j


class TestSweeps:
    @pytest.mark.parametrize("support", [(0, 1, 3), (0,), (2, 5)])
    def test_embedding_homomorphism(self, support):
        fam = AtomicFamily(SupportSet(support))
        r = verify_embedding_homomorphism(fam, 3)
        assert r.passed and r.counterexample is None

    @pytest.mark.parametrize("support", [(0, 1, 3), (0,)])
    def test_restricted_closed(self, support):
        fam = AtomicFamily(SupportSet(support))
        r = verify_restricted_closed(fam, 4)
        assert r.passed

    def test_single_pair_example(self, fam013):
        got = brandt_multiply(BrandtElem(3, 1, 5), BrandtElem(5, 0, 2))
        assert got == BrandtElem(3, 0, 2) and in_restricted(got, fam013)


class TestTextForms:
    def test_roundtrip(self):
        for text in ["O", "(2;1;5)", "(10;0;7)"]:
            assert format_brandt(parse_brandt(text)) == text

    @pytest.mark.parametrize("bad", ["", "0", "(1,2,3)", "(1;2)", "(;1;2)", "Q", "(²;0;0)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_brandt(bad)

    def test_json(self):
        assert brandt_to_json(ZERO) == {"O": True}
        assert brandt_to_json(BrandtElem(1, 0, 2)) == {"row": 1, "val": 0, "col": 2}
