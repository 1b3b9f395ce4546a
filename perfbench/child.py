"""The process that runs the package: started fresh by run.py, one at a time.

Modes (the inputs arrive as JSON on stdin where a mode needs them):
  setup                   import the package, decode the inputs, print "ready"
  run                     run the in-process workload and print its outputs
  probe                   measure the unit cost of each layer on fixed inputs
  cli-trace FILE ARGV...  run the CLI in process with spans, writing them to FILE
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (perfbench/, the script's own directory)


def import_package():
    import brandt_omega
    import brandt_omega.cli  # noqa: F401

    if SRC.resolve() not in Path(brandt_omega.__file__).resolve().parents:
        sys.exit(f"brandt_omega was imported from {brandt_omega.__file__}, not from this checkout")
    return brandt_omega


def to_json(x):
    if x is None or type(x).__name__ == "Zero":
        return None
    if hasattr(x, "row"):
        return [x.row, x.val, x.col]
    return [x.i, x.j, x.k]


def report_json(r):
    return [r.passed, r.checked]


def make_op(pkg, op: dict):
    """A callable running one operation and returning its output as JSON.

    Functions are looked up on their module at every call, so the wrappers
    of a traced round are the ones called.
    """
    from brandt_omega import brandt, equations, topology, verification

    kind = op["kind"]
    fam = pkg.parse_family(op["family"])
    bound = op["bound"]
    br = lambda t: pkg.BrandtElem(*t)

    if kind == "ac":
        u = pkg.AcNbhd(frozenset(tuple(p) for p in op["excluded"]))
        x = br(op["x"])
        return lambda: [
            report_json(topology.check_shift_continuity_ac(u, x, fam, bound)),
            report_json(topology.check_inversion_ac(u, fam, bound)),
        ]
    if kind == "t1-annihilation":
        x = br(op["x"])
        return lambda: report_json(topology.tau1_annihilation_check(x, fam, bound))
    if kind == "t1-self-product":
        u = pkg.Tau1Nbhd(op["n"])
        return lambda: report_json(topology.tau1_self_product_check(u, fam, bound))
    if kind == "prop49":
        nb = op["nbhd"]
        u = pkg.Tau1Nbhd(nb["t1"]) if "t1" in nb else pkg.AcNbhd(frozenset(tuple(p) for p in nb["ac"]))
        ms = [br(m) for m in op["m"]]
        return lambda: topology.check_prop49_condition(u, ms, fam, bound)
    if kind == "witness":
        a = br(op["a"])
        ds = [br(d) for d in op["d"]]
        return lambda: to_json(topology.find_zero_witness(a, ds))
    if kind == "solve":
        a, b, side = br(op["a"]), br(op["b"]), op["side"]

        def solve():
            solver = equations.solve_left if side == "left" else equations.solve_right
            found = sorted(to_json(s) for s in solver(a, b, fam).solutions)
            brute = [to_json(s) for s in equations.brute_force_solutions(a, b, side, bound, fam)]
            return [found, brute]

        return solve
    if kind == "sweeps":
        # What `brandt-omega verify` runs, in the same order, minus printing.
        def sweeps():
            atoms = verification.BoundedUniverse.atoms(fam, bound)
            reports = [
                ("associativity", verification.check_associativity(atoms)),
                ("inverse-axioms", verification.check_inverse_axioms(atoms)),
                ("order-equivalence", verification.check_order_equivalence(atoms)),
                ("embedding-homomorphism", brandt.verify_embedding_homomorphism(fam, bound)),
                ("restricted-closure", brandt.verify_restricted_closed(fam, bound)),
            ]
            return [[name, r.passed, r.checked, r.counterexample and [to_json(e) for e in r.counterexample]]
                    for name, r in reports]

        return sweeps
    if kind == "defect":
        universe = verification.BoundedUniverse.atoms(fam, bound)
        p, q, w = (pkg.AtomElem(*op[k]) for k in ("p", "q", "w"))
        base = universe.product()

        def bad(a, b):
            return w if (b == q and a == p) else base(a, b)

        def sweep():
            r = verification.check_associativity(universe, product=bad)
            ce = None if r.counterexample is None else [to_json(e) for e in r.counterexample]
            return [r.passed, r.checked, ce]

        return sweep
    raise SystemExit(f"unknown operation kind {kind!r}")


def run_round(ops, calls, tracer=None, first_op: int = 0) -> dict:
    """Every operation once, in order; scored later, so an exception is output."""
    lat, out = [], []
    before = dict(tracer.counts) if tracer else None
    r0 = time.perf_counter()
    for n, (op, call) in enumerate(zip(ops, calls)):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op = first_op + n
            sid = tracer.begin(f"bench.{op['kind']}")
        try:
            res = call()
        except Exception as e:  # scored as a failed operation; the run goes on
            res = {"error": f"{type(e).__name__}: {e}"}
        if tracer is not None:
            tracer.end(sid)
        lat.append(time.perf_counter() - t0)
        out.append(res)
    row = {"wall": time.perf_counter() - r0, "lat": lat, "out": out}
    if tracer is not None:
        row["counts"] = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
    return row


def _keep(rounds: list, row: dict) -> None:
    """Append a round, storing None for outputs equal to the first round's,
    so the harness's memory does not grow with the number of rounds."""
    if rounds and row["out"] == rounds[0]["out"]:
        row["out"] = None
    rounds.append(row)


def run_rounds(ops, calls, seconds, tracer=None):
    """Closed loop, one client: whole rounds until `seconds` have passed.

    With a tracer, untraced and traced rounds alternate, so a drift in the
    host's speed falls on both alike and the ratio of their means is the
    tracing overhead.  Returns (untraced rounds, traced rounds).
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        _keep(plain, run_round(ops, calls))
        if tracer is not None:
            restore = spans.install(tracer)
            try:
                _keep(traced, run_round(ops, calls, tracer, len(traced) * len(ops)))
            finally:
                restore()
        if time.perf_counter() - start >= seconds:
            return plain, traced


def mode_run(spec: dict) -> dict:
    pkg = import_package()
    ops = spec["ops"]
    calls = [make_op(pkg, op) for op in ops]
    tracer = spans.Tracer() if spec["trace"] else None
    plain, traced = run_rounds(ops, calls, spec["seconds"], tracer)
    if tracer is None:
        return {"rounds": plain}
    return {"rounds": plain, "traced": traced, "spans": tracer.spans}


def _median_time(fn, reps: int, inner: int = 1) -> float:
    """Median over `reps` of the seconds one call takes (fn runs `inner` calls)."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / inner)
    return statistics.median(samples)


def mode_probe() -> dict:
    """Unit costs of each layer on fixed inputs, untraced.

    The inputs are the same for every workload, so these figures, the exact
    counts among them, compare across workloads and commits; the traced
    workload rounds say how much of each workload a layer accounts for.
    """
    pkg = import_package()
    from brandt_omega import brandt, cli, core, equations, topology, verification

    m = {}
    f013 = pkg.parse_family("0,1,3")
    f027 = pkg.parse_family("0,2,+7")

    atoms6 = verification.BoundedUniverse.atoms(f013, 6)
    pairs = [(a, b) for a in atoms6.elements for b in atoms6.elements]
    mul = atoms6.product()

    def mul_all():
        for a, b in pairs:
            mul(a, b)

    m["core.mul_ns"] = _median_time(mul_all, 5, len(pairs)) * 1e9
    some = pairs[:: max(1, len(pairs) // 2000)]
    m["core.nat_leq_definitional_us"] = _median_time(
        lambda: [core.nat_leq_definitional(x, y, f013) for x, y in some], 3, len(some)) * 1e6
    runiv = brandt.restricted_universe(f013, 6)
    bpairs = [(a, b) for a in runiv for b in runiv]

    def bmul_all():
        for a, b in bpairs:
            brandt.brandt_multiply(a, b)

    m["brandt.multiply_ns"] = _median_time(bmul_all, 5, len(bpairs)) * 1e9
    m["families.upto_us"] = _median_time(lambda: [f027.support.upto(25) for _ in range(1000)], 5, 1000) * 1e6
    m["verification.universe_ms"] = _median_time(lambda: verification.BoundedUniverse.atoms(f013, 6), 5) * 1e3
    m["brandt.restricted_universe_ms"] = _median_time(lambda: brandt.restricted_universe(f027, 25), 5) * 1e3

    a, b = pkg.BrandtElem(2, 1, 4), pkg.BrandtElem(2, 1, 5)
    m["equations.solve_us"] = _median_time(lambda: [equations.solve_left(a, b, f013) for _ in range(200)], 5, 200) * 1e6
    a, b = pkg.BrandtElem(9, 2, 14), pkg.BrandtElem(9, 2, 20)
    m["equations.brute_force_ms"] = _median_time(
        lambda: equations.brute_force_solutions(a, b, "left", 25, f027), 5) * 1e3

    def rate(fn, reps: int) -> float:
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            checked = fn().checked
            samples.append(checked / (time.perf_counter() - t0))
        return statistics.median(samples)

    # The exact counts of one associativity sweep, through a counting product
    # passed as product=; its timing is taken without the counter.
    atoms3 = verification.BoundedUniverse.atoms(f013, 3)
    counter = spans.Tracer()
    checked = spans.counting_associativity(counter, verification.check_associativity)(atoms3).checked
    calls = counter.counts["verification.assoc_product_calls"]
    m["verification.assoc_product_calls"] = calls
    m["verification.assoc_memo_hit_ratio"] = 1 - calls / counter.counts["verification.assoc_lookups"]
    m["verification.associativity_s"] = _median_time(lambda: verification.check_associativity(atoms3), 5)
    m["verification.associativity_checks_per_s"] = checked / m["verification.associativity_s"]
    m["verification.inverse_axioms_checks_per_s"] = rate(lambda: verification.check_inverse_axioms(atoms6), 5)
    atoms4 = verification.BoundedUniverse.atoms(f013, 4)
    m["verification.order_equivalence_checks_per_s"] = rate(lambda: verification.check_order_equivalence(atoms4), 3)
    m["brandt.embedding_checks_per_s"] = rate(lambda: brandt.verify_embedding_homomorphism(f013, 4), 3)
    m["brandt.restricted_closure_checks_per_s"] = rate(lambda: brandt.verify_restricted_closed(f013, 6), 3)

    # One query of each kind at the acceptance bound, with the time spent
    # rebuilding the restricted universe measured alongside.
    x = pkg.BrandtElem(9, 2, 14)
    u_ac = pkg.AcNbhd(frozenset({(2, 5), (9, 3)}))
    queries = {
        "ac": lambda: (topology.check_shift_continuity_ac(u_ac, x, f027, 25),
                       topology.check_inversion_ac(u_ac, f027, 25)),
        "t1-annihilation": lambda: topology.tau1_annihilation_check(x, f027, 25),
        "t1-self-product": lambda: topology.tau1_self_product_check(pkg.Tau1Nbhd(21), f027, 25),
        "prop49": lambda: topology.check_prop49_condition(pkg.Tau1Nbhd(3), [pkg.BrandtElem(20, 2, 20)], f027, 25),
        "witness": lambda: topology.find_zero_witness(x, [pkg.BrandtElem(14, 2, 20), pkg.BrandtElem(3, 0, 9)]),
    }
    original = topology.restricted_universe
    in_universe = [0.0]
    universe_calls = [0]

    def timed_universe(*args):
        universe_calls[0] += 1
        t0 = time.perf_counter()
        try:
            return original(*args)
        finally:
            in_universe[0] += time.perf_counter() - t0

    topology.restricted_universe = timed_universe
    try:
        total = 0.0
        calls = 0
        for kind, fn in queries.items():
            samples = []
            for _ in range(5):
                before = universe_calls[0]
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
            calls += universe_calls[0] - before
            total += sum(samples)
            m[f"topology.query_ms.{kind}"] = statistics.median(samples) * 1e3
    finally:
        topology.restricted_universe = original
    m["topology.restricted_universe_share"] = in_universe[0] / total
    # Calls made by one query of each kind.
    m["topology.restricted_universe_calls"] = calls

    m["cli.build_parser_ms"] = _median_time(cli.build_parser, 21) * 1e3
    argv = ["mul", "--family", "0,1,3", "(0,1,3)", "(3,0,1)"]

    def cli_main():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)

    m["cli.main_ms"] = _median_time(cli_main, 21) * 1e3
    return m


def mode_cli_trace(out_file: str, argv: list[str]) -> int:
    import_package()
    tracer = spans.Tracer()
    spans.install(tracer)
    from brandt_omega import cli

    tracer.op = 0
    try:
        return cli.main(argv)
    finally:
        Path(out_file).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli-trace":
        return mode_cli_trace(sys.argv[2], sys.argv[3:])
    if mode == "probe":
        print(json.dumps(mode_probe()))
        return 0
    spec = json.loads(sys.stdin.read())
    if mode == "setup":
        pkg = import_package()
        if spec["ops"][0]["kind"] != "cli":
            for op in spec["ops"]:
                make_op(pkg, op)
        print("ready", flush=True)
        return 0
    if mode == "run":
        print(json.dumps(mode_run(spec)))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
