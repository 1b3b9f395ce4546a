"""The names perfbench calls in the package, exercised through perfbench itself.

perfbench/child.py calls the library by name: `BoundedUniverse.product()`,
`check_associativity(product=)`, `topology.restricted_universe`, the
`BoundedUniverse.atoms`/`.brandt` classmethods its tracer wraps, and more.
These tests run its layer probe and one traced round (`--trace 1`) of the
two benchmarked in-process workloads on this checkout, so a library change
that breaks one of those names, or the answers of a traced round, fails
here.  They only read perfbench: the child runs with -B and the inputs
module is loaded without writing bytecode next to it.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"


def child(mode: str, stdin: str = "") -> dict:
    p = subprocess.run([sys.executable, "-B", str(CHILD), mode], input=stdin,
                       capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout)


@pytest.fixture(scope="module")
def inputs():
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_probe_counts():
    m = child("probe")
    assert m["verification.assoc_product_calls"] == 6321
    assert m["topology.restricted_universe_calls"] == 2


# product calls of check_associativity in one round; topo-queries makes none
ROUND_PRODUCT_CALLS = {"verify-sweeps": 30642, "topo-queries": 0}


@pytest.mark.parametrize("workload", ["verify-sweeps", "topo-queries"])
def test_traced_round_has_no_failed_operation(inputs, workload):
    ops, expected = inputs.GENERATORS[workload](1)
    res = child("run", json.dumps({"ops": ops, "seconds": 0, "trace": 1}))
    # seconds 0: exactly one untraced and one traced round
    assert len(res["rounds"]) == len(res["traced"]) == 1
    for rnd in res["rounds"] + res["traced"]:
        failed = [(op, out) for op, out, exp in zip(ops, rnd["out"], expected) if out != exp]
        assert failed == [] and len(rnd["out"]) == len(ops)
    # spans are per call of a layer; a per-element function left public
    # would add one per element, thousands in a verify-sweeps round
    assert len(res["spans"]) <= 50 * len(ops)
    counts = res["traced"][0]["counts"]
    assert counts.get("verification.assoc_product_calls", 0) == ROUND_PRODUCT_CALLS[workload]
