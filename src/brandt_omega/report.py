"""Verification report records shared by the sweep-style checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a bounded sweep.

    A failed report always carries a counterexample tuple; the note holds
    human-readable context (sweep parameters, documented caveats).
    """

    passed: bool
    checked: int
    counterexample: tuple | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if not self.passed and self.counterexample is None:
            raise ValueError("failed report must carry a counterexample")

    def to_json_dict(self, elem_json: Callable[[Any], Any]) -> dict:
        ce = None
        if self.counterexample is not None:
            ce = [elem_json(e) for e in self.counterexample]
        return {
            "passed": self.passed,
            "checked": self.checked,
            "counterexample": ce,
            "note": self.note,
        }


def check_injective_homomorphism(
    elements, phi: Callable, src_mul: Callable, dst_mul: Callable, name: str, note: str
) -> VerificationReport:
    """phi is injective on elements, then phi(x*y) == phi(x)*phi(y) for all
    pairs in lexicographic order; a collision is reported with checked=0."""
    images = [phi(x) for x in elements]
    seen = {}
    for x, fx in zip(elements, images):
        if fx in seen:
            return VerificationReport(False, 0, (seen[fx], x), note=f"{name} not injective")
        seen[fx] = x
    checked = 0
    for x, fx in zip(elements, images):
        for y, fy in zip(elements, images):
            if phi(src_mul(x, y)) != dst_mul(fx, fy):
                return VerificationReport(False, checked, (x, y), note=f"{name} not a homomorphism")
            checked += 1
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
