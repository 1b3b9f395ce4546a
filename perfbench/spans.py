"""Spans around the calls into each layer, recorded from outside the package.

`install` rebinds the package's public functions, in every module namespace
that holds them, to wrappers that record one span per call: name, start,
end, parent span and operation id.  Because the wrappers replace the names
the modules look up, calls from one module into another are seen as well
as the benchmark's own calls into the package.  Spans stay in memory and
are written out when the process ends.

Per-element kernels (products, order tests, parsing and formatting of
single elements) are left unwrapped: a span per product would cost more
than the product and would swamp the trace.  Their time shows as self
time of the sweep that calls them, and the layer probe measures their
unit cost.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("families", "core", "brandt", "equations", "topology", "verification", "report", "cli")

KERNELS = frozenset({
    "core.multiply", "core.multiply_general", "core.validate_elem", "core.invert",
    "core.is_idempotent", "core.nat_leq", "core.nat_leq_definitional",
    "core.immediate_predecessors", "core.maximal_chain_down", "core.sort_key",
    "core.format_elem", "core.parse_elem", "core.elem_to_json", "core.elem_from_json",
    "brandt.brandt_multiply", "brandt.brandt_invert", "brandt.brandt_is_idempotent",
    "brandt.in_restricted", "brandt.validate_restricted", "brandt.embed",
    "brandt.embed_inverse", "brandt.brandt_sort_key", "brandt.format_brandt",
    "brandt.parse_brandt", "brandt.brandt_to_json", "brandt.brandt_from_json",
    "topology.ac_contains", "topology.tau1_contains", "topology.nbhd_contains",
    "topology.phi", "topology.psi", "topology.extended_multiply",
    "topology.mseq_nbhd_contains",
})


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, operation id, name, start ns, end ns)
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self.stack[-1] if self.stack else -1, self.op, name, time.perf_counter_ns(), 0])
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][5] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, caller: str, fn):
        key = f"{caller}->{name}"

        def traced(*args, **kwargs):
            self.count(key)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        traced.__wrapped__ = fn
        return traced


def counting_associativity(tracer: Tracer, fn):
    """check_associativity with a counting product passed through product=.

    Also adds the sweep's lookup base: the products the lexicographic sweep
    asks for, N^2 + 3N^3 when it passes and (checked // N + 1) + 3(checked + 1)
    when it stops at a counterexample.
    """

    def counted(universe, product=None):
        inner = product if product is not None else universe.product()

        def mul(a, b):
            tracer.count("verification.assoc_product_calls")
            return inner(a, b)

        report = fn(universe, product=mul)
        n = len(universe.elements)
        if report.passed:
            asked = n * n + 3 * n**3
        else:
            asked = report.checked // n + 1 + 3 * (report.checked + 1)
        tracer.count("verification.assoc_lookups", asked)
        return report

    return counted


def install(tracer: Tracer):
    """Wrap the public functions; return a function that puts the originals back."""
    mods = {m: importlib.import_module(f"brandt_omega.{m}") for m in MODULES}
    saved = []
    for caller, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            if home not in mods:
                continue
            name = f"{home}.{obj.__name__}"
            if name in KERNELS:
                continue
            if name == "verification.check_associativity":
                obj = counting_associativity(tracer, obj)
            saved.append((mod, attr, vars(mod)[attr]))
            setattr(mod, attr, tracer.wrap(name, caller, obj))
    universe = mods["verification"].BoundedUniverse
    for attr in ("atoms", "brandt"):
        saved.append((universe, attr, vars(universe)[attr]))
        fn = getattr(universe, attr).__func__
        setattr(universe, attr, classmethod(tracer.wrap(f"verification.BoundedUniverse.{attr}", "verification", fn)))

    def restore() -> None:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore


def self_times(spans: list) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds (total minus children)."""
    child_ns: dict[int, int] = {}
    for sid, parent, _op, _name, start, end in spans:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    out: dict[str, dict] = {}
    for sid, _parent, _op, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns.get(sid, 0)) / 1e9
    return out


def merge_self_times(parts: list[dict]) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for part in parts:
        for name, row in part.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out
