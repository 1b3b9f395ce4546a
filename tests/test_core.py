import copy
import pickle

import pytest
from hypothesis import given, settings

import strategies as sts
from brandt_omega.core import (
    ATOMS,
    AtomElem,
    ZERO,
    Zero,
    elem_to_json,
    elements_upto,
    format_elem,
    idempotent_chain_census,
    immediate_predecessors,
    invert,
    is_idempotent,
    maximal_chain_down,
    nat_leq,
    nat_leq_definitional,
    parse_elem,
)
from brandt_omega.errors import InvalidElementError, ParseError
from brandt_omega.families import AtomicFamily, SupportSet
from general_family import GeneralFamily, SetElem, as_general, multiply_general

E = frozenset


def checked_mul(a, b, f):
    """The product of two elements, each validated against f first."""
    ATOMS.validate(a, f)
    ATOMS.validate(b, f)
    return ATOMS.mul(a, b)


class TestZero:
    def test_one_instance_through_copies_and_pickles(self):
        assert (repr(ZERO), type(ZERO).__name__) == ("ZERO", "Zero")
        assert Zero() is ZERO
        assert copy.copy(ZERO) is ZERO and copy.deepcopy(ZERO) is ZERO
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(ZERO, protocol)) is ZERO, protocol


class TestMultiply:
    def test_zero_annihilates(self, fam013):
        assert checked_mul(ZERO, AtomElem(2, 3, 1), fam013) is ZERO
        assert checked_mul(AtomElem(2, 3, 1), ZERO, fam013) is ZERO

    def test_examples(self, fam013):
        assert checked_mul(AtomElem(0, 1, 3), AtomElem(3, 0, 1), fam013) == AtomElem(2, 0, 1)
        assert checked_mul(AtomElem(0, 1, 3), AtomElem(2, 0, 1), fam013) is ZERO
        assert checked_mul(AtomElem(2, 1, 1), AtomElem(1, 0, 1), fam013) == AtomElem(2, 0, 1)

    def test_invalid_atom_rejected(self, fam013):
        with pytest.raises(InvalidElementError):
            checked_mul(AtomElem(0, 0, 2), AtomElem(0, 0, 0), fam013)

    def test_negative_coordinate_named_as_typed(self, fam013):
        with pytest.raises(InvalidElementError, match=r"^negative coordinate in \(-1,2,0\)$"):
            checked_mul(AtomElem(-1, 2, 0), AtomElem(0, 0, 0), fam013)

    @given(sts.fam_and_elems(n=2))
    def test_square_is_self_or_zero(self, fe):
        fam, (x, _) = fe
        assert checked_mul(x, x, fam) in (x, ZERO)

    @given(sts.fam_and_elems(n=2))
    def test_agrees_with_general_product(self, fe):
        fam, (a, b) = fe
        upto = 12
        gfam = as_general(fam, upto)

        def lift(x):
            return ZERO if x is ZERO else SetElem(x.i, x.j, E([x.k]))

        got = multiply_general(lift(a), lift(b), gfam)
        want = checked_mul(a, b, fam)
        if want is ZERO:
            assert got is ZERO
        else:
            assert got == SetElem(want.i, want.j, E([want.k]))


class TestMultiplyGeneral:
    FAM = GeneralFamily((E(), E([2]), E([0, 2])))

    def test_examples(self):
        got = multiply_general(SetElem(0, 0, E([0, 2])), SetElem(0, 0, E([2])), self.FAM)
        assert got == SetElem(0, 0, E([2]))
        assert multiply_general(SetElem(1, 1, E([2])), ZERO, self.FAM) is ZERO
        got = multiply_general(SetElem(0, 2, E([0, 2])), SetElem(1, 0, E([2])), self.FAM)
        assert got is ZERO

    def test_validates_membership(self):
        with pytest.raises(InvalidElementError):
            multiply_general(SetElem(0, 0, E([7])), ZERO, self.FAM)
        with pytest.raises(InvalidElementError):
            multiply_general(ZERO, ZERO, GeneralFamily((E([0]),)))

    def test_product_set_outside_the_family_rejected(self):
        # {0,1} against its shift by one gives {0}, which {∅,{0,1}} lacks
        fam = GeneralFamily((E(), E([0, 1])))
        with pytest.raises(InvalidElementError, match=r"^product set \{0\} is not a family member$"):
            multiply_general(SetElem(0, 1, E([0, 1])), SetElem(0, 0, E([0, 1])), fam)


class TestInverse:
    def test_examples(self, fam013):
        assert invert(AtomElem(2, 5, 1)) == AtomElem(5, 2, 1)
        assert invert(ZERO) is ZERO
        assert invert(AtomElem(3, 3, 0)) == AtomElem(3, 3, 0)

    @given(sts.fam_and_elems(n=1))
    def test_inverse_axioms(self, fe):
        fam, (x,) = fe
        xi = invert(x)
        assert checked_mul(checked_mul(x, xi, fam), x, fam) == x
        assert checked_mul(checked_mul(xi, x, fam), xi, fam) == xi


class TestIdempotents:
    def test_examples(self, fam013):
        assert is_idempotent(AtomElem(5, 5, 1))
        assert not is_idempotent(AtomElem(5, 4, 1))
        assert is_idempotent(ZERO)

    @given(sts.fam_and_elems(n=1))
    def test_matches_self_product(self, fe):
        fam, (x,) = fe
        assert is_idempotent(x) == (checked_mul(x, x, fam) == x)


class TestOrder:
    def test_examples(self, fam013):
        assert nat_leq(AtomElem(3, 2, 1), AtomElem(1, 0, 3))
        assert not nat_leq(AtomElem(3, 4, 1), AtomElem(3, 4, 3))
        assert nat_leq(ZERO, AtomElem(9, 9, 0)) and nat_leq(ZERO, ZERO)
        assert not nat_leq(AtomElem(0, 0, 0), ZERO)

    def test_definitional_examples(self, fam013):
        assert nat_leq_definitional(AtomElem(3, 2, 1), AtomElem(1, 0, 3), fam013)
        assert not nat_leq_definitional(AtomElem(0, 0, 3), AtomElem(3, 3, 0), fam013)
        x = AtomElem(4, 2, 1)
        assert nat_leq_definitional(x, x, fam013)

    def test_witness_from_example(self, fam013):
        # y * e reaches x with the forced idempotent e = (j_x, j_x, k_x)
        y, x = AtomElem(1, 0, 3), AtomElem(3, 2, 1)
        assert checked_mul(y, AtomElem(2, 2, 1), fam013) == x

    @given(sts.fam_and_elems(n=2, max_coord=8))
    @settings(max_examples=60)
    def test_criterion_matches_definition(self, fe):
        fam, (x, y) = fe
        assert nat_leq(x, y) == nat_leq_definitional(x, y, fam)


class TestChains:
    def test_immediate_predecessors(self, fam013):
        assert immediate_predecessors(AtomElem(0, 0, 3), fam013) == [AtomElem(2, 2, 1)]
        assert immediate_predecessors(AtomElem(2, 2, 1), fam013) == [AtomElem(3, 3, 0)]
        assert immediate_predecessors(AtomElem(5, 7, 0), fam013) == [ZERO]
        assert immediate_predecessors(ZERO, fam013) == []

    def test_chain_examples(self, fam013):
        assert maximal_chain_down(AtomElem(0, 0, 3), fam013) == [
            AtomElem(0, 0, 3), AtomElem(2, 2, 1), AtomElem(3, 3, 0), ZERO,
        ]
        assert maximal_chain_down(AtomElem(4, 7, 0), fam013) == [AtomElem(4, 7, 0), ZERO]
        assert maximal_chain_down(AtomElem(1, 2, 1), fam013) == [
            AtomElem(1, 2, 1), AtomElem(2, 3, 0), ZERO,
        ]

    def test_chain_rejects_zero(self, fam013):
        with pytest.raises(InvalidElementError):
            maximal_chain_down(ZERO, fam013)

    @given(sts.fam_and_elems(n=1, allow_zero=False))
    def test_chain_length_and_links(self, fe):
        fam, (x,) = fe
        chain = maximal_chain_down(x, fam)
        assert len(chain) == fam.support.index_of(x.k) + 2
        assert chain[-1] is ZERO
        for hi, lo in zip(chain, chain[1:]):
            assert nat_leq(lo, hi) and lo != hi

    @given(sts.fam_and_elems(n=1, allow_zero=False))
    def test_chain_is_the_walk_of_predecessors(self, fe):
        # oracle: step through immediate_predecessors from x down to the zero
        fam, (x,) = fe
        walk = [x]
        while walk[-1] is not ZERO:
            walk += immediate_predecessors(walk[-1], fam)
        assert maximal_chain_down(x, fam) == walk


class TestCensus:
    def test_examples(self, fam0, fam013):
        assert idempotent_chain_census(fam0, 2) == {2: 3}
        fam01 = AtomicFamily(SupportSet((0, 1)))
        assert idempotent_chain_census(fam01, 1) == {2: 2, 3: 2}
        assert idempotent_chain_census(fam013, 0) == {2: 1, 3: 1, 4: 1}

    def test_tail_truncates_at_index_bound(self, fam_tail):
        # atoms 0, 4, 5 enter at bound 2; one length per enumeration index
        assert idempotent_chain_census(fam_tail, 2) == {2: 3, 3: 3, 4: 3}


class TestUniverse:
    def test_elements_upto(self, fam013):
        univ = elements_upto(fam013, 1)
        assert univ[0] is ZERO
        assert len(univ) == 1 + 4 * 2  # atoms 0 and 1 only
        assert AtomElem(1, 1, 1) in univ


class TestTextForms:
    def test_roundtrip(self):
        for text in ["0", "(2,0,1)", "(10,3,7)"]:
            assert format_elem(parse_elem(text)) == text

    @pytest.mark.parametrize("bad", ["", "()", "(1,2)", "(1,2,3,4)", "(-1,2,3)", "O", "(1;2;3)", "(²,0,0)"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_elem(bad)

    def test_json(self):
        assert elem_to_json(ZERO) == {"zero": True}
        assert elem_to_json(AtomElem(1, 2, 3)) == {"i": 1, "j": 2, "k": 3}
