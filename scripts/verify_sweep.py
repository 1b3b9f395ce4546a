#!/usr/bin/env python3
"""Sweep the core verification checks over a grid of supports and bounds.

Usage: python scripts/verify_sweep.py [bound ...]   (default: 4 6; 6 is the CLI default)

Exits 0 when every sweep passes, 1 when any fails, 2 on a bad bound, and
141 (128 + SIGPIPE) when the reader of stdout closes it early.
"""

import sys
import time

from brandt_omega.cli import exit_with
from brandt_omega.families import AtomicFamily, nat, parse_support
from brandt_omega.verification import VERIFY_CHECKS

SUPPORTS = ["0", "0,1,3", "2,5", "0,+4", "1,2,+6"]
USAGE = "usage: verify_sweep.py [bound ...]   (bounds are naturals; default: 4 6)"


def main() -> int:
    bounds = [nat(b) for b in sys.argv[1:]] or [4, 6]
    if None in bounds:
        print(USAGE, file=sys.stderr)
        return 2
    print(f"{'support':>8}  {'bound':>5}  {'check':<24} {'checked':>10}  {'time':>10}")
    failed = False
    for text in SUPPORTS:
        fam = AtomicFamily(parse_support(text))
        for bound in bounds:
            for name, run, _kind in VERIFY_CHECKS:
                start = time.perf_counter()
                r = run(fam, bound)
                ms = (time.perf_counter() - start) * 1e3
                failed = failed or not r.passed
                status = "ok" if r.passed else f"FAIL {r.counterexample}"
                print(f"{text:>8}  {bound:>5}  {name:<24} {r.checked:>10}  {ms:8.2f}ms  {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    exit_with(main)
