"""The value records behave as values: repr, equality, hashing, copying,
pickling and immutability, pinned record by record.

Each row builds one value twice through its factory, so the two results
are equal without being the same object.  `SupportSet` is built from a
non-canonical spelling of the same set the second time.
"""

import copy
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import brandt_omega
import brandt_omega.cli
from brandt_omega.brandt import BrandtElem
from brandt_omega.core import ATOMS, ZERO, AtomElem, _mul, elem_to_json, format_elem, invert
from brandt_omega.core import is_idempotent, parse_elem, validate_elem
from brandt_omega.equations import FiniteSolutions, InfiniteZeroCase
from brandt_omega.errors import FamilyError, InvalidElementError
from brandt_omega.families import AtomicFamily, SupportSet, _Checked
from brandt_omega.report import VerificationReport
from brandt_omega.topology import AcNbhd, Tau1Nbhd
from brandt_omega.verification import BoundedUniverse

SUP = "SupportSet(explicit=(0, 1, 3), tail=None)"
KIND = (f"ElemKind(mul={_mul!r}, inv={invert!r}, idem={is_idempotent!r}, "
        f"validate={validate_elem!r}, parse={parse_elem!r}, fmt={format_elem!r}, "
        f"to_json={elem_to_json!r})")

# (name, two factories giving equal values, exact repr, a field to assign)
RECORDS = [
    ("SupportSet", lambda: SupportSet((0, 1, 3)), lambda: SupportSet((3, 1, 0, 1)),
     SUP, "explicit"),
    ("SupportSet tail", lambda: SupportSet((0, 2), 5), lambda: SupportSet((0, 2, 5, 6), 7),
     "SupportSet(explicit=(0, 2), tail=5)", "tail"),
    ("AtomicFamily", lambda: AtomicFamily(SupportSet((0, 1, 3))),
     lambda: AtomicFamily(SupportSet((1, 3, 0))), f"AtomicFamily(support={SUP})", "support"),
    ("AcNbhd", lambda: AcNbhd(frozenset({(2, 5)})), lambda: AcNbhd([(2, 5), (2, 5)]),
     "AcNbhd(excluded=frozenset({(2, 5)}))", "excluded"),
    ("Tau1Nbhd", lambda: Tau1Nbhd(3), lambda: Tau1Nbhd(3), "Tau1Nbhd(n=3)", "n"),
    ("VerificationReport pass", lambda: VerificationReport(True, 5),
     lambda: VerificationReport(True, 5, None, ""),
     "VerificationReport(passed=True, checked=5, counterexample=None, note='')", "passed"),
    ("VerificationReport fail", lambda: VerificationReport(False, 2, (AtomElem(1, 0, 1),), "bad"),
     lambda: VerificationReport(False, 2, (AtomElem(1, 0, 1),), note="bad"),
     "VerificationReport(passed=False, checked=2, "
     "counterexample=(AtomElem(i=1, j=0, k=1),), note='bad')", "note"),
    ("FiniteSolutions", lambda: FiniteSolutions((BrandtElem(1, 0, 2),)),
     lambda: FiniteSolutions((BrandtElem(1, 0, 2),)),
     "FiniteSolutions(solutions=(BrandtElem(row=1, val=0, col=2),))", "solutions"),
    ("InfiniteZeroCase", lambda: InfiniteZeroCase("every X"), lambda: InfiniteZeroCase("every X"),
     "InfiniteZeroCase(description='every X')", "description"),
    ("BoundedUniverse", lambda: BoundedUniverse(AtomicFamily(SupportSet((0, 1, 3))), 0, ATOMS, (ZERO,)),
     lambda: BoundedUniverse(AtomicFamily(SupportSet((0, 1, 3))), 0, ATOMS, (ZERO,)),
     f"BoundedUniverse(family=AtomicFamily(support={SUP}), bound=0, kind={KIND}, "
     "elements=(ZERO,))", "bound"),
    ("AtomElem", lambda: AtomElem(1, 2, 3), lambda: AtomElem(1, 2, 3),
     "AtomElem(i=1, j=2, k=3)", "k"),
    ("BrandtElem", lambda: BrandtElem(1, 2, 3), lambda: BrandtElem(1, 2, 3),
     "BrandtElem(row=1, val=2, col=3)", "row"),
]

ROWS = pytest.mark.parametrize("make, make_again, text, field", [r[1:] for r in RECORDS],
                               ids=[r[0] for r in RECORDS])


@ROWS
def test_repr(make, make_again, text, field):
    assert repr(make()) == text


@ROWS
def test_equal_values_are_equal_with_equal_hashes(make, make_again, text, field):
    a, b = make(), make_again()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@ROWS
def test_copies_and_pickles_round_trip(make, make_again, text, field):
    a = make()
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is type(a)
        assert c == a and hash(c) == hash(a) and repr(c) == text


@ROWS
def test_fields_cannot_be_assigned_or_deleted(make, make_again, text, field):
    a = make()
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == before


def test_atom_elem_second_init_leaves_it_unchanged():
    # a rewritten element would be lost as a dict key under either value
    a = AtomElem(1, 2, 3)
    table = {a: "a"}
    a.__init__(4, 5, 6)
    assert (a.i, a.j, a.k) == (1, 2, 3)
    assert table[AtomElem(1, 2, 3)] == "a" and AtomElem(4, 5, 6) not in table


def test_support_membership_survives_copies():
    s = SupportSet((0, 1, 3))
    for c in [copy.copy(s), copy.deepcopy(s), *(pickle.loads(pickle.dumps(s, p))
                                                for p in range(pickle.HIGHEST_PROTOCOL + 1))]:
        assert [k for k in range(6) if k in c] == [0, 1, 3]


# (name, a rebuild through _replace or _make of an invalid value, the
# error the constructor documents for it)
REBUILDS = [
    ("SupportSet", lambda: SupportSet((0, 1))._replace(explicit=(-1,)), FamilyError),
    ("AcNbhd", lambda: AcNbhd({(1, 2)})._replace(excluded={(-1, 0)}), InvalidElementError),
    ("Tau1Nbhd", lambda: Tau1Nbhd(3)._replace(n=-1), InvalidElementError),
    ("Tau1Nbhd _make", lambda: Tau1Nbhd._make([-1]), InvalidElementError),
    ("VerificationReport", lambda: VerificationReport(True, 1)._replace(passed=False), ValueError),
]


@pytest.mark.parametrize("rebuild, error", [r[1:] for r in REBUILDS], ids=[r[0] for r in REBUILDS])
def test_rebuilds_validate_like_the_constructor(rebuild, error):
    with pytest.raises(error):
        rebuild()


def test_validating_records_share_the_one_checked_base():
    # a subclass of a named tuple with its own __new__ validates there, and
    # a named tuple's own _make would skip it in _replace and _make
    modules = [getattr(brandt_omega, m) for m in (
        "brandt", "cli", "core", "equations", "families", "report", "topology", "verification")]
    validating = {cls for m in modules for cls in vars(m).values()
                  if isinstance(cls, type) and issubclass(cls, tuple)
                  and cls.__module__.startswith("brandt_omega.")
                  and "__new__" in vars(cls) and "_fields" not in vars(cls)}
    assert {SupportSet, AcNbhd, Tau1Nbhd, VerificationReport} <= validating
    assert all(issubclass(cls, _Checked) for cls in validating)


def test_valid_rebuilds_are_canonical():
    s = SupportSet((0, 1))._replace(tail=5)
    assert s == SupportSet((0, 1), 5) and [k for k in range(8) if k in s] == [0, 1, 5, 6, 7]
    assert SupportSet((0, 1))._replace(tail=2) == SupportSet((), 0)
    u = AcNbhd({(1, 2)})._replace(excluded={(3, 4)})
    assert type(u.excluded) is frozenset and hash(u) == hash(AcNbhd({(3, 4)}))

def test_atom_and_brandt_triples_never_equal():
    a, b = AtomElem(1, 2, 3), BrandtElem(1, 2, 3)
    assert a != b and b != a
    assert not a == b and not b == a
    assert len({a, b}) == 2
    assert a != (1, 2, 3) and (1, 2, 3) != a


def test_cli_import_leaves_out_dataclasses_typing_and_inspect():
    # -S: no site hooks, which on some hosts import typing themselves
    code = ("import sys, brandt_omega.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    p = subprocess.run([sys.executable, "-S", "-B", "-c", code], env=env,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout == "[]\n"


def test_package_root_keeps_only_the_five_names_the_benchmark_reads():
    public = {name for name, value in vars(brandt_omega).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"parse_family", "AtomElem", "BrandtElem", "AcNbhd", "Tau1Nbhd"}
