"""Acceptance suite: every criterion at its stated bound, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; all tolerances are exact (integer arithmetic throughout).
"""

import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

from brandt_omega.brandt import (
    BrandtElem,
    brandt_multiply,
    fiber,
    restricted_universe,
    verify_embedding_homomorphism,
    verify_restricted_closed,
)
from brandt_omega.core import ZERO
from brandt_omega.equations import brute_force_solutions, solve_left, solve_right
from brandt_omega.families import AtomicFamily, are_translate_equivalent, parse_support
from brandt_omega.topology import (
    Tau1Nbhd,
    ac_complement_size,
    check_inversion_ac,
    check_shift_continuity_ac,
    find_zero_witness,
    tau1_annihilation_check,
    tau1_self_product_check,
)
from brandt_omega.verification import (
    BoundedUniverse,
    check_associativity,
    check_chain_census_invariance,
    check_chain_structure,
    check_inverse_axioms,
    check_isomorphism_transport,
    check_order_equivalence,
)

FAMILIES = {
    text: AtomicFamily(parse_support(text)) for text in ["0", "0,1,3", "2,5", "0,+4"]
}
FAM013 = FAMILIES["0,1,3"]


def report(cid, desc):
    print(f"criterion {cid:2d} PASS  {desc}")


class TestAcceptance:
    def test_01_associativity(self):
        for text, fam in FAMILIES.items():
            start = time.monotonic()
            r = check_associativity(BoundedUniverse.atoms(fam, 4))
            elapsed = time.monotonic() - start
            assert r.passed, f"associativity failed for {text}: {r}"
            assert elapsed < 30, f"sweep for {text} took {elapsed:.1f}s"
        report(1, "associativity at bound 4 for {0},{0,1,3},{2,5},{0,+4}, each < 30 s")

    def test_02_inverse_axioms(self):
        for text, fam in FAMILIES.items():
            r = check_inverse_axioms(BoundedUniverse.atoms(fam, 6))
            assert r.passed, f"inverse axioms failed for {text}: {r}"
        report(2, "inverse axioms and idempotent commutation at bound 6")

    def test_03_order_equivalence(self):
        for text in ["0,1,3", "0,2,+5"]:
            fam = AtomicFamily(parse_support(text))
            r = check_order_equivalence(BoundedUniverse.atoms(fam, 5))
            assert r.passed, f"order criteria disagree for {text}: {r}"
        report(3, "coordinate order == definitional order at bound 5")

    def test_04_embedding(self):
        for text, fam in FAMILIES.items():
            r = verify_embedding_homomorphism(fam, 5)
            assert r.passed, f"embedding failed for {text}: {r}"
            r = verify_restricted_closed(fam, 6)
            assert r.passed, f"closure failed for {text}: {r}"
        report(4, "embedding injective homomorphism (bound 5), image closed (bound 6)")

    def test_05_chain_structure(self):
        for text, fam in FAMILIES.items():
            r = check_chain_structure(BoundedUniverse.atoms(fam, 5))
            assert r.passed, f"chain structure failed for {text}: {r}"
            assert "cumulative" in r.note and "per-step" in r.note
        report(5, "chain lengths index(k)+2, links ordered and tight; shift policy noted")

    def test_06_equation_solvers(self):
        univ = [e for e in restricted_universe(FAM013, 5) if e is not ZERO]
        oracle_bound = 5 + 3  # max coordinate plus largest support element
        for A, B in product(univ, repeat=2):
            left = solve_left(A, B, FAM013).solutions
            right = solve_right(A, B, FAM013).solutions
            assert list(left) == brute_force_solutions(A, B, "left", oracle_bound, FAM013)
            assert list(right) == brute_force_solutions(A, B, "right", oracle_bound, FAM013)
            assert all(X in fiber(A.col, B.col, FAM013) for X in left)
            assert all(X in fiber(B.row, A.row, FAM013) for X in right)
        report(6, "solvers equal brute force and stay in the stated fiber (coords <= 5)")

    def test_07_isomorphism_decision(self):
        f235 = AtomicFamily(parse_support("2,3,5"))
        f023 = AtomicFamily(parse_support("0,2,3"))
        assert are_translate_equivalent(FAM013, f235) == -2
        assert are_translate_equivalent(FAM013, f023) is None
        assert check_isomorphism_transport(FAM013, f235, 5).passed
        assert check_isomorphism_transport(f235, FAM013, 5).passed
        r = check_chain_census_invariance(FAM013, f235, 8)
        assert r.passed and "agree" in r.note
        r = check_chain_census_invariance(FAM013, f023, 8)
        assert r.passed and "diverge" in r.note
        report(7, "translate decision, transported homomorphism, census invariance")

    AC_PAIRS = [
        ("ac:", BrandtElem(1, 0, 2)),
        ("ac:(2,5)", BrandtElem(3, 1, 4)),
        ("ac:(0,0)", BrandtElem(0, 0, 0)),
        ("ac:(2,5)(5,2)", BrandtElem(2, 1, 5)),
        ("ac:(0,3)(1,4)", BrandtElem(4, 3, 7)),
        ("ac:(1,1)(2,2)(3,3)", BrandtElem(1, 1, 1)),
        ("ac:(0,1)", BrandtElem(5, 0, 5)),
        ("ac:(4,4)", BrandtElem(4, 0, 6)),
        ("ac:(7,2)(2,7)", BrandtElem(7, 1, 2)),
        ("ac:(3,0)(0,3)(6,6)", BrandtElem(6, 3, 3)),
    ]

    def test_08_compactification_base(self):
        from brandt_omega.cli import parse_nbhd

        for text, x in self.AC_PAIRS:
            u = parse_nbhd(text)
            assert check_shift_continuity_ac(u, x, FAM013, 20).passed, (text, x)
            assert check_inversion_ac(u, FAM013, 20).passed, text
            size = ac_complement_size(u, FAM013)
            assert size == sum(len(fiber(r, c, FAM013)) for r, c in u.excluded)
            removed = [
                e for e in restricted_universe(FAM013, 20)
                if e is not ZERO and e not in u
            ]
            assert len(removed) == size
        report(8, "10 fixed neighborhood/element pairs: continuity, inversion, sizes")

    def test_09_threshold_base(self):
        for n in range(1, 21):
            r = tau1_self_product_check(Tau1Nbhd(n), FAM013, 25)
            assert r.passed, f"self-product failed for n={n}: {r}"
        for x in restricted_universe(FAM013, 19):
            if x is ZERO:
                continue
            r = tau1_annihilation_check(x, FAM013, 25)
            assert r.passed, f"annihilation failed for {x}: {r}"
        report(9, "threshold base: annihilation at n=max+1 and self-products, bound 25")

    def test_10_zero_witnesses(self):
        rng = random.Random(20260808)

        def rand_elem():
            while True:
                row, col = rng.randint(0, 30), rng.randint(0, 30)
                ks = FAM013.support.upto(min(row, col))
                if ks:
                    return BrandtElem(row, rng.choice(ks), col)

        def rand_sample():
            while True:
                d = [rand_elem() for _ in range(10)]
                if len({e.row for e in d}) >= 2 and len({e.col for e in d}) >= 2:
                    return d

        chosen_a = [rand_elem() for _ in range(10)]
        samples = [rand_sample() for _ in range(100)]
        for a in chosen_a:
            for d in samples:
                assert find_zero_witness(a, d) is not None, (a, d)
        report(10, "zero witness found on 100 samples x 10 elements")

    def test_11_adjoined_extension(self):
        # an extra point whose every product, with itself included, is the zero
        adjoined = object()

        def mul(x, y):
            return ZERO if x is adjoined or y is adjoined else brandt_multiply(x, y)

        univ = restricted_universe(FAM013, 4) + [adjoined]
        for a in univ:
            assert mul(a, adjoined) is ZERO
            assert mul(adjoined, a) is ZERO
        for a, b, c in product(univ, repeat=3):
            lhs = mul(mul(a, b), c)
            rhs = mul(a, mul(b, c))
            assert lhs == rhs, (a, b, c)
        report(11, "adjoined-point extension associative on bound-4 universe")

    def test_12_cli_determinism(self):
        env = dict(os.environ)
        env.pop("BRANDT_OMEGA_BOUND", None)
        # the child imports the package from src, as pytest does here
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, "-m", "brandt_omega", "verify", "--family", "0,1,3"]
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout and first.stderr == second.stderr
        assert first.stdout.count(b": pass") == 5
        report(12, "verify at defaults: byte-identical output twice, exit 0")
