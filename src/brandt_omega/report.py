"""Verification report records shared by the sweep-style checks."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable
from itertools import repeat

from .families import _Checked


class VerificationReport(_Checked,
                         namedtuple("VerificationReport", "passed checked counterexample note")):
    """Outcome of a bounded sweep.

    A failed report always carries a counterexample tuple; the note holds
    human-readable context (sweep parameters, documented caveats).
    """

    __slots__ = ()

    def __new__(cls, passed: bool, checked: int, counterexample: tuple | None = None,
                note: str = "") -> VerificationReport:
        if not passed and counterexample is None:
            raise ValueError("failed report must carry a counterexample")
        return super().__new__(cls, passed, checked, counterexample, note)


class _Images(dict):
    """x -> phi(x), computed when x is first looked up."""

    __slots__ = ("phi",)

    def __init__(self, phi: Callable) -> None:
        self.phi = phi

    def __missing__(self, x):
        fx = self[x] = self.phi(x)
        return fx


def check_injective_homomorphism(
    elements, phi: Callable, src_mul: Callable, dst_mul: Callable, name: str, note: str
) -> VerificationReport:
    """phi is injective on elements, then phi(x*y) == phi(x)*phi(y) for all
    pairs in lexicographic order; a collision is reported with checked=0.

    Row x maps src_mul and dst_mul over the elements.  Each product's image
    is looked up in a dict filled as values first appear, so phi runs once
    per distinct product; the row of images is then compared with the row
    of dst_mul products, and the first differing y gives the report.  The
    dict lives for one call.
    """
    images = [phi(x) for x in elements]
    seen = {}
    for x, fx in zip(elements, images):
        if fx in seen:
            return VerificationReport(False, 0, (seen[fx], x), note=f"{name} not injective")
        seen[fx] = x
    image_of = _Images(phi)
    checked = 0
    for x, fx in zip(elements, images):
        lhs = list(map(image_of.__getitem__, map(src_mul, repeat(x), elements)))
        rhs = list(map(dst_mul, repeat(fx), images))
        if lhs != rhs:
            c = next(c for c in range(len(lhs)) if lhs[c] != rhs[c])
            return VerificationReport(False, checked + c, (x, elements[c]),
                                      note=f"{name} not a homomorphism")
        checked += len(lhs)
    return VerificationReport(True, checked, note=note)


def check_closed(members, mul: Callable, contains: Callable,
                 fail_note: str, note: str) -> VerificationReport:
    """Every product a*b of two members satisfies contains, for all pairs
    in lexicographic order."""
    checked = 0
    for a in members:
        for b in members:
            if not contains(mul(a, b)):
                return VerificationReport(False, checked, (a, b), note=fail_note)
            checked += 1
    return VerificationReport(True, checked, note=note)
