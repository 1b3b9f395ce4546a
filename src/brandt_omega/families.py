"""Supports and families of atomic subsets of the naturals.

An atomic family is {emptyset} together with singletons {k}; only the
support (the set of all k that occur) is stored.  Supports are finite
sorted sets, optionally extended by a cofinal tail "every n >= t", which
makes the infinite case representable without symbolic machinery.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import FamilyError, ParseError

_NAT = re.compile(r"[0-9]+")


def nat(text: str) -> int | None:
    """The natural written in ASCII digits, or None: str.isdigit() accepts
    digits such as "²".  Fewer digits than sys.get_int_max_str_digits() are
    read, so the sum of two naturals, the largest number any command
    prints, still converts to text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if _NAT.fullmatch(text) is None or 0 < limit <= len(text):
        return None
    return int(text)


@dataclass(frozen=True)
class SupportSet:
    """Finite sorted set of naturals, plus an optional tail: all n >= tail.

    Representations are canonical: an explicit run ending right below the
    tail is absorbed into it, so equal supports compare equal.
    """

    explicit: tuple[int, ...]
    tail: int | None = None

    def __post_init__(self) -> None:
        xs = sorted(set(self.explicit))
        if any(x < 0 for x in xs):
            raise FamilyError("support elements must be naturals")
        t = self.tail
        if t is not None:
            if t < 0:
                raise FamilyError("tail threshold must be a natural")
            if xs and xs[-1] >= t:
                raise FamilyError("explicit elements must lie strictly below the tail")
            while xs and xs[-1] == t - 1:
                t -= 1
                xs.pop()
        if not xs and t is None:
            raise FamilyError("support must be nonempty")
        object.__setattr__(self, "explicit", tuple(xs))
        object.__setattr__(self, "tail", t)
        object.__setattr__(self, "_eset", frozenset(xs))

    @property
    def is_finite(self) -> bool:
        return self.tail is None

    @property
    def minimum(self) -> int:
        return self.explicit[0] if self.explicit else self.tail

    def __contains__(self, k: int) -> bool:
        return k in self._eset or (self.tail is not None and k >= self.tail)

    def kth(self, m: int) -> int:
        """The m-th element of the increasing enumeration k_0 < k_1 < ..."""
        if m < 0:
            raise IndexError("enumeration index must be a natural")
        if m < len(self.explicit):
            return self.explicit[m]
        if self.tail is None:
            raise IndexError(f"support has only {len(self.explicit)} elements")
        return self.tail + (m - len(self.explicit))

    def index_of(self, k: int) -> int:
        """Position of k in the increasing enumeration."""
        if k in self._eset:
            return self.explicit.index(k)
        if self.tail is not None and k >= self.tail:
            return len(self.explicit) + (k - self.tail)
        raise KeyError(f"{k} is not in the support")

    def predecessor(self, k: int) -> int | None:
        """Largest support element strictly below k, or None."""
        m = self.index_of(k)
        return self.kth(m - 1) if m > 0 else None

    def successor(self, k: int) -> int | None:
        """Smallest support element strictly above k, or None when k is the maximum."""
        m = self.index_of(k)
        if self.tail is None and m + 1 >= len(self.explicit):
            return None
        return self.kth(m + 1)

    def upto(self, x: int) -> list[int]:
        """All support elements <= x, ascending; always finite."""
        out = [e for e in self.explicit if e <= x]
        if self.tail is not None and self.tail <= x:
            out.extend(range(self.tail, x + 1))
        return out

    def prefix(self, count: int) -> list[int]:
        """The first `count` elements of the enumeration."""
        if self.tail is None:
            return list(self.explicit[:count])
        return [self.kth(m) for m in range(count)]

    def shift(self, n: int) -> SupportSet:
        """Translate every element by -n; negative results are an error."""
        xs = tuple(e - n for e in self.explicit)
        t = self.tail - n if self.tail is not None else None
        if any(x < 0 for x in xs) or (t is not None and t < 0):
            raise FamilyError(f"translating by {n} leaves the naturals")
        return SupportSet(xs, t)

    def to_text(self) -> str:
        parts = [str(e) for e in self.explicit]
        if self.tail is not None:
            parts.append(f"+{self.tail}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.to_text()


def parse_support(text: str) -> SupportSet:
    """Parse `nat ("," nat)* ("," "+" nat)? | "+" nat`, e.g. "0,1,3" or "0,2,+7"."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty support")
    parts = s.split(",")
    explicit: list[int] = []
    tail: int | None = None
    for pos, p in enumerate(parts):
        is_tail = p.startswith("+") and pos == len(parts) - 1
        n = nat(p[1:] if is_tail else p)
        if n is None:
            raise ParseError(f"bad support: {text!r}")
        if is_tail:
            tail = n
        else:
            explicit.append(n)
    try:
        return SupportSet(tuple(explicit), tail)
    except FamilyError as e:
        raise ParseError(f"bad support: {text!r} ({e})") from e


@dataclass(frozen=True)
class AtomicFamily:
    """The family {emptyset} u {{k} : k in support}.

    The empty set is always an implicit member; at least one singleton is
    required, so the degenerate one-element semigroup never arises.
    """

    support: SupportSet

    def contains_atom(self, k: int) -> bool:
        return k in self.support

    def normalize(self) -> tuple[AtomicFamily, int]:
        """Shift the support so it contains 0; returns (family, k0)."""
        k0 = self.support.minimum
        return AtomicFamily(self.support.shift(k0)), k0


def parse_family(text: str) -> AtomicFamily:
    return AtomicFamily(parse_support(text))


def are_translate_equivalent(f1: AtomicFamily, f2: AtomicFamily) -> int | None:
    """The unique integer n with support(f1) = n + support(f2), if any.

    Only n = min(f1) - min(f2) can work; full equality is then verified.
    """
    n = f1.support.minimum - f2.support.minimum
    if f2.support.shift(-n) == f1.support:
        return n
    return None
