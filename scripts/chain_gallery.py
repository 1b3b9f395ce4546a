#!/usr/bin/env python3
"""Print maximal chains, censuses, and fiber tables for a few supports.

Usage: python scripts/chain_gallery.py [support ...]

Exits 0, 2 on a bad support, and 141 (128 + SIGPIPE) when the reader of
stdout closes it early.
"""

import sys

from brandt_omega.brandt import fiber
from brandt_omega.cli import exit_with
from brandt_omega.core import AtomElem, format_elem, idempotent_chain_census, maximal_chain_down
from brandt_omega.errors import ParseError
from brandt_omega.families import AtomicFamily, parse_support
from brandt_omega.verification import maximal_chain_census

USAGE = 'usage: chain_gallery.py [support ...]   (supports such as "0,1,3" or "0,+4")'


def main():
    supports = sys.argv[1:] or ["0,1,3", "0,2", "2,3,5", "0,+4"]
    try:
        families = [(text, AtomicFamily(parse_support(text))) for text in supports]
    except ParseError:
        print(USAGE, file=sys.stderr)
        sys.exit(2)
    for text, fam in families:
        print(f"== support {text} ==")
        ks = fam.support.upto(max(6, fam.support.minimum + 2))
        for k in ks[:4]:
            chain = maximal_chain_down(AtomElem(0, 0, k), fam)
            print(f"  chain from (0,0,{k}): " + " > ".join(format_elem(e) for e in chain))
        print(f"  idempotent census (bound 6): {idempotent_chain_census(fam, 6)}")
        print(f"  maximal-chain census (bound 6): {maximal_chain_census(fam, 6)}")
        rows = []
        for r in range(5):
            rows.append(" ".join(str(len(fiber(r, c, fam))) for c in range(5)))
        print("  fiber sizes (rows 0..4 x cols 0..4):")
        for line in rows:
            print(f"    {line}")
        print()


if __name__ == "__main__":
    exit_with(main)
