import pytest
from hypothesis import given

import strategies as sts
from brandt_omega.errors import FamilyError, ParseError
from brandt_omega.families import (
    AtomicFamily,
    GeneralFamily,
    SupportSet,
    are_translate_equivalent,
    parse_family,
    parse_support,
    validate_omega_closed,
)

E = frozenset


class TestSupportSet:
    def test_parse_examples(self):
        assert parse_support("0,1,3") == SupportSet((0, 1, 3))
        assert parse_support("0,2,+7") == SupportSet((0, 2), 7)
        assert parse_support("+4") == SupportSet((), 4)

    def test_text_roundtrip(self):
        for text in ["0,1,3", "0,2,+7", "+4", "5"]:
            assert parse_support(text).to_text() == text

    @pytest.mark.parametrize("bad", ["", "abc", "+", "3,+2", "-1", "1,,2", "+3,1", "²", "0,+³"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_support(bad)

    def test_canonical_tail_absorption(self):
        assert SupportSet((0, 1, 2), 3) == SupportSet((), 0)
        assert SupportSet((0, 2), 7) == SupportSet((2, 0), 7)
        assert SupportSet((0, 6), 7) == SupportSet((0,), 6)

    def test_construction_rejects(self):
        with pytest.raises(FamilyError):
            SupportSet(())
        with pytest.raises(FamilyError):
            SupportSet((-1,))
        with pytest.raises(FamilyError):
            SupportSet((3,), 3)
        with pytest.raises(FamilyError):
            SupportSet((), -2)

    def test_kth(self):
        s = SupportSet((0, 1, 3))
        assert [s.kth(m) for m in range(3)] == [0, 1, 3]
        with pytest.raises(IndexError):
            s.kth(3)
        t = SupportSet((0,), 5)
        assert [t.kth(m) for m in range(5)] == [0, 5, 6, 7, 8]

    def test_index_predecessor_successor(self):
        s = SupportSet((0, 1, 3))
        assert s.index_of(3) == 2
        assert s.predecessor(3) == 1 and s.predecessor(0) is None
        assert s.successor(1) == 3 and s.successor(3) is None
        t = SupportSet((0,), 5)
        assert t.index_of(7) == 3
        assert t.predecessor(5) == 0 and t.predecessor(6) == 5
        assert t.successor(0) == 5 and t.successor(7) == 8
        with pytest.raises(KeyError):
            s.index_of(2)

    def test_upto_and_membership(self):
        t = SupportSet((0, 2), 7)
        assert t.upto(9) == [0, 2, 7, 8, 9]
        assert 2 in t and 8 in t and 5 not in t

    def test_shift(self):
        assert SupportSet((2, 3, 5)).shift(2) == SupportSet((0, 1, 3))
        with pytest.raises(FamilyError):
            SupportSet((2, 3)).shift(3)


class TestNormalize:
    def test_examples(self):
        fam, k0 = AtomicFamily(SupportSet((2, 3, 5))).normalize()
        assert fam.support == SupportSet((0, 1, 3)) and k0 == 2
        fam, k0 = AtomicFamily(SupportSet((0, 1, 3))).normalize()
        assert fam.support == SupportSet((0, 1, 3)) and k0 == 0
        fam, k0 = AtomicFamily(SupportSet((), 4)).normalize()
        assert fam.support == SupportSet((), 0) and k0 == 4

    @given(sts.families())
    def test_idempotent(self, fam):
        normalized, _ = fam.normalize()
        again, k0 = normalized.normalize()
        assert k0 == 0 and again == normalized


class TestTranslateEquivalence:
    def test_examples(self):
        f1 = AtomicFamily(SupportSet((0, 1, 3)))
        f2 = AtomicFamily(SupportSet((2, 3, 5)))
        assert are_translate_equivalent(f1, f2) == -2
        assert are_translate_equivalent(f2, f1) == 2
        f3 = AtomicFamily(SupportSet((0, 2, 3)))
        assert are_translate_equivalent(f1, f3) is None
        assert are_translate_equivalent(f1, f1) == 0

    def test_mixed_kinds(self):
        finite = AtomicFamily(SupportSet((0, 1)))
        tailed = AtomicFamily(SupportSet((0,), 4))
        assert are_translate_equivalent(finite, tailed) is None
        shifted = AtomicFamily(SupportSet((2,), 6))
        assert are_translate_equivalent(shifted, tailed) == 2

    @given(sts.families(), sts.families())
    def test_symmetry_and_reflexivity(self, f1, f2):
        assert are_translate_equivalent(f1, f1) == 0
        n = are_translate_equivalent(f1, f2)
        m = are_translate_equivalent(f2, f1)
        if n is None:
            assert m is None
        else:
            assert m == -n

    @given(sts.families(), sts.support_sets())
    def test_transitivity_through_shift(self, f1, _s):
        # build an equivalent family by an explicit translate and compose
        d = f1.support.minimum
        f2 = AtomicFamily(f1.support.shift(d))
        n12 = are_translate_equivalent(f1, f2)
        assert n12 == d
        f3, k0 = f2.normalize()
        n23 = are_translate_equivalent(f2, f3)
        assert are_translate_equivalent(f1, f3) == n12 + n23


class TestOmegaClosed:
    def test_examples(self):
        assert validate_omega_closed(GeneralFamily((E(), E([0]), E([1]), E([3]))))
        assert not validate_omega_closed(GeneralFamily((E([0]),)))
        assert validate_omega_closed(GeneralFamily((E(),)))

    def test_shifted_intersection_escapes(self):
        # {0,2} shifted against {2} produces {0}, which is missing
        fam = GeneralFamily((E(), E([2]), E([0, 2])))
        assert not validate_omega_closed(fam)

    def test_duplicates_rejected(self):
        with pytest.raises(FamilyError):
            GeneralFamily((E([1]), E([1])))

    @given(sts.families())
    def test_induced_family_is_closed(self, fam):
        assert validate_omega_closed(fam.as_general(upto=12))


def test_parse_family_roundtrip():
    assert parse_family("0,1,3").support == SupportSet((0, 1, 3))
    with pytest.raises(ParseError):
        parse_family("")
