"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check the independent expectations against brute enumeration, the
determinism of the seeded inputs, that the exact counts of a traced run
(the probe's and the workload's per round) repeat for a fixed seed, and that the command refuses to run without the
package source.  Run from the root of a checkout; about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("checked_per_round", "verification.assoc_product_calls", "topology.restricted_universe_calls")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


class ClosedForms(unittest.TestCase):
    CASES = [("0,1,3", b) for b in range(5)] + [("2,5", 5), ("0,+4", 4), ("0,2,+7", 3)]

    def test_counts_match_enumeration(self):
        for support, bound in self.CASES:
            with self.subTest(support=support, bound=bound):
                univ = inputs.core_universe(support, bound)
                idems = [x for x in univ if x is None or x[0] == x[1]]
                restricted = inputs.restricted_universe(support, bound)
                counts = inputs.verify_counts(support, bound)
                self.assertEqual(counts["associativity"], len(univ) ** 3)
                self.assertEqual(counts["inverse-axioms"], len(univ) + len(idems) ** 2)
                self.assertEqual(counts["order-equivalence"], len(univ) ** 2)
                self.assertEqual(counts["restricted-closure"], len(restricted) ** 2)

    def test_reference_product_is_associative(self):
        univ = inputs.core_universe("0,1,3", 2)
        self.assertEqual(inputs.reference_sweep(univ, inputs.core_mul), (True, len(univ) ** 3, None))

    def test_readme_example_products(self):
        self.assertEqual(inputs.core_mul((0, 1, 3), (3, 0, 1)), (2, 0, 1))
        self.assertEqual(inputs.brandt_mul((2, 1, 4), (4, 3, 5)), (2, 1, 5))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, gen in inputs.GENERATORS.items():
            with self.subTest(workload=name):
                self.assertEqual(gen(5), gen(5))

    def test_seed_changes_inputs(self):
        for name in ("topo-queries", "defect-hunt"):
            with self.subTest(workload=name):
                self.assertNotEqual(inputs.GENERATORS[name](5)[0], inputs.GENERATORS[name](6)[0])

    def test_defects_surface_at_their_row(self):
        ops, expected = inputs.gen_defect(5)
        for op, (passed, checked, ce) in zip(ops, expected):
            n = len(inputs.core_universe(op["family"], op["bound"]))
            row = inputs.core_universe(op["family"], op["bound"]).index(tuple(op["p"]))
            with self.subTest(op=op):
                self.assertFalse(passed)
                self.assertEqual(ce[0], op["p"])
                self.assertEqual(checked // (n * n), row)


class Runs(unittest.TestCase):
    def traced(self, workload: str, seed: int) -> dict:
        p = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], p.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["per_layer"]})
        trace = json.loads((ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json").read_text())
        self.assertGreater(trace["counts_per_round"]["checked"], 0)
        return {**{k: result["metrics"][k]["value"] for k in EXACT}, **trace["counts_per_round"]}

    def test_exact_counts_repeat_for_a_seed(self):
        for workload in ("verify-sweeps", "topo-queries", "defect-hunt"):
            with self.subTest(workload=workload):
                self.assertEqual(self.traced(workload, 3), self.traced(workload, 3))

    def test_untraced_result_line(self):
        p = bench("--workload", "defect-hunt", "--seed", "2", "--seconds", "1")
        result = json.loads(p.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(result["failed"], 0)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec["end_to_end"]})

    def test_refuses_without_package_source(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            p = bench("--workload", "topo-queries", "--seed", "1", "--seconds", "1", cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
