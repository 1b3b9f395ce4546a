import pytest
from hypothesis import given

import strategies as sts
from brandt_omega.brandt import BrandtElem, restricted_universe, validate_restricted
from brandt_omega.core import AtomElem, census_atoms, elements_upto, validate_elem
from brandt_omega.errors import FamilyError, InvalidElementError, ParseError
from brandt_omega.families import (
    AtomicFamily,
    SupportSet,
    are_translate_equivalent,
    is_natural,
    parse_family,
    parse_support,
)
from brandt_omega.topology import AcNbhd, MSeq, Tau1Nbhd
from brandt_omega.verification import BoundedUniverse
from general_family import GeneralFamily, as_general, validate_omega_closed

E = frozenset


class TestSupportSet:
    def test_parse_examples(self):
        assert parse_support("0,1,3") == SupportSet((0, 1, 3))
        assert parse_support("0,2,+7") == SupportSet((0, 2), 7)
        assert parse_support("+4") == SupportSet((), 4)

    def test_text_roundtrip(self):
        for text in ["0,1,3", "0,2,+7", "+4", "5"]:
            assert str(parse_support(text)) == text

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
        with pytest.raises(IndexError, match="^enumeration index must be a natural$"):
            s.kth(-1)
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
        # only naturals are members, although 2.0 == 2 and 8.5 > 7
        assert 2.0 not in t and True not in SupportSet((1,)) and 8.5 not in t and "8" not in t

    def test_shift(self):
        assert SupportSet((2, 3, 5)).shift(2) == SupportSet((0, 1, 3))
        assert SupportSet((), 4).shift(4) == SupportSet((), 0)
        with pytest.raises(FamilyError):
            SupportSet((2, 3)).shift(3)


F013 = AtomicFamily(SupportSet((0, 1, 3)))
F_TAIL = AtomicFamily(SupportSet((0,), 4))

# Each library input that must be a natural, with the error it documents.
NATURAL_INPUTS = [
    ("support element", lambda x: SupportSet((0, x)), FamilyError),
    ("support tail", lambda x: SupportSet((0,), x), FamilyError),
    ("excluded row", lambda x: AcNbhd(frozenset({(x, 5)})), InvalidElementError),
    ("excluded col", lambda x: AcNbhd(frozenset({(2, x)})), InvalidElementError),
    ("threshold", Tau1Nbhd, InvalidElementError),
    ("members bound", lambda x: Tau1Nbhd(0).members(F_TAIL, x), InvalidElementError),
    ("census bound", lambda x: census_atoms(F_TAIL, x), InvalidElementError),
    ("elements bound", lambda x: elements_upto(F_TAIL, x), InvalidElementError),
    ("window bound", lambda x: restricted_universe(F_TAIL, x), InvalidElementError),
    ("universe bound", lambda x: BoundedUniverse.atoms(F013, x), InvalidElementError),
    ("atom i", lambda x: validate_elem(AtomElem(x, 0, 0), F_TAIL), InvalidElementError),
    ("atom j", lambda x: validate_elem(AtomElem(0, x, 0), F_TAIL), InvalidElementError),
    ("atom k", lambda x: validate_elem(AtomElem(0, 0, x), F_TAIL), InvalidElementError),
    ("Brandt row", lambda x: validate_restricted(BrandtElem(x, 0, 3), F_TAIL), InvalidElementError),
    ("Brandt val", lambda x: validate_restricted(BrandtElem(9, x, 9), F_TAIL), InvalidElementError),
    ("Brandt col", lambda x: validate_restricted(BrandtElem(3, 0, x), F_TAIL), InvalidElementError),
    ("sequence entry", lambda x: MSeq((BrandtElem(x, 0, 2),)), InvalidElementError),
]


class TestNaturalInputs:
    def test_is_natural(self):
        assert is_natural(0) and is_natural(7) and is_natural(10**40)
        assert not any(map(is_natural, [-1, True, False, 2.0, 2.5, "3", None, (1,)]))

    # 4.5 passes every `< 0` test and reaches the tail 4 by `>=`; True is 1.
    @pytest.mark.parametrize("x", [True, 2.7, 4.5, "3"], ids=repr)
    @pytest.mark.parametrize("name, call, error", NATURAL_INPUTS, ids=[c[0] for c in NATURAL_INPUTS])
    def test_non_int_raises_the_documented_error(self, name, call, error, x):
        with pytest.raises(error):
            call(x)

    def test_coordinate_messages(self):
        with pytest.raises(InvalidElementError, match=r"^non-natural coordinate in \(1\.5,0,0\)$"):
            validate_elem(AtomElem(1.5, 0, 0), F013)
        with pytest.raises(InvalidElementError, match=r"^atom 4\.5 is not in support 0,\+4$"):
            validate_elem(AtomElem(0, 0, 4.5), F_TAIL)


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
        f3 = AtomicFamily(f2.support.shift(f2.support.minimum))
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
        assert validate_omega_closed(as_general(fam, upto=12))


def test_parse_family_roundtrip():
    assert parse_family("0,1,3").support == SupportSet((0, 1, 3))
    with pytest.raises(ParseError):
        parse_family("")
