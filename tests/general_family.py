"""The semigroup over a general family: the tests' oracle for the atomic product.

Gutik and Mykhalenych define the product for every omega-closed family of
finite subsets of the naturals; an atomic family is the case where every
member is empty or a singleton.  The package implements only that case.
Here the set-valued product is written from the definition, and the
atomic family's set form (`as_general`) lets tests compare `_mul` with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from brandt_omega.core import ZERO, Zero
from brandt_omega.errors import FamilyError, InvalidElementError
from brandt_omega.families import AtomicFamily


@dataclass(frozen=True, slots=True)
class SetElem:
    """Nonzero element (i, j, F) over a general family; F is never empty."""

    i: int
    j: int
    members: frozenset[int]


GeneralElem = Zero | SetElem


def _validate_general(x: GeneralElem, fam: GeneralFamily) -> None:
    if x is ZERO:
        if frozenset() not in fam:
            raise InvalidElementError("family has no empty member, so no zero")
        return
    if not x.members:
        raise InvalidElementError("empty member set must be the zero")
    if x.members not in fam:
        raise InvalidElementError(f"{set(x.members)} is not a family member")


def multiply_general(a: GeneralElem, b: GeneralElem, fam: GeneralFamily) -> GeneralElem:
    """Set-valued product: the intersection of suitably shifted members.

    Collapses to the zero exactly when the empty set is a family member and
    the resulting set is empty.  A nonempty product set outside the family
    (possible only when the family is not omega-closed) is an error.
    """
    _validate_general(a, fam)
    _validate_general(b, fam)
    if a is ZERO or b is ZERO:
        return ZERO
    if a.j <= b.i:
        shift = a.j - b.i
        third = frozenset(x + shift for x in a.members) & b.members
        i, j = a.i - a.j + b.i, b.j
    else:
        shift = b.i - a.j
        third = a.members & frozenset(x + shift for x in b.members)
        i, j = a.i, a.j - b.i + b.j
    if not third:
        if frozenset() in fam:
            return ZERO
        raise InvalidElementError("product set is empty but the family has no empty member")
    if third not in fam:
        raise InvalidElementError(f"product set {set(third)} is not a family member")
    return SetElem(i, j, third)


@dataclass(frozen=True)
class GeneralFamily:
    """A finite explicit family of finite subsets of the naturals."""

    members: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        frozen = tuple(frozenset(m) for m in self.members)
        if len(set(frozen)) != len(frozen):
            raise FamilyError("duplicate members in family")
        for m in frozen:
            if any(x < 0 for x in m):
                raise FamilyError("family members must be subsets of the naturals")
        object.__setattr__(self, "members", frozen)
        object.__setattr__(self, "_mset", frozenset(frozen))

    def __contains__(self, s: frozenset[int]) -> bool:
        return s in self._mset

    def __iter__(self):
        return iter(self.members)


def validate_omega_closed(fam: GeneralFamily) -> bool:
    """Check F1 & (-n + F2) in fam for all members and all n.

    Only n up to max(F2)+1 matters: beyond it the shifted intersection is
    constantly empty, and the max+1 case already tests membership of the
    empty set.
    """
    for f1 in fam:
        for f2 in fam:
            top = (max(f2) + 1) if f2 else 0
            for n in range(top + 1):
                if f1 & frozenset(x - n for x in f2) not in fam:
                    return False
    return True


def as_general(f: AtomicFamily, upto: int) -> GeneralFamily:
    """The induced set-valued family, singletons truncated to <= upto."""
    members = [frozenset()]
    members.extend(frozenset([k]) for k in f.support.upto(upto))
    return GeneralFamily(tuple(members))
