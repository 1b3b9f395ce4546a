"""brandt-omega benchmark: one workload per run, verdicts checked, metrics printed.

    python3 perfbench/run.py --workload topo-queries --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; a readable
table goes to stderr.  With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones, and the span report is written
to .bench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT = 170
SETUP_SAMPLES = 21
STARTUP_SAMPLES = 5
IN_PROCESS = ("verify-sweeps", "topo-queries", "defect-hunt")


def child_env(extra: dict | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("BRANDT_OMEGA_BOUND", "PYTHONDONTWRITEBYTECODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def spawn(cmd: list[str], stdin: str = "", env: dict | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True, cwd=ROOT,
                          env=env or child_env(), timeout=CHILD_TIMEOUT)


def setup_sample(spec: str) -> float:
    """Seconds from spawning the child until the package is imported and the
    inputs are decoded."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(CHILD), "setup"], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env()) as p:
        try:
            p.stdin.write(spec)
            p.stdin.close()
            line = p.stdout.readline()
            elapsed = time.perf_counter() - t0
            p.stdout.read()
            p.wait(timeout=CHILD_TIMEOUT)
        finally:
            if p.poll() is None:
                p.kill()
                p.wait()
    if line.strip() != "ready" or p.returncode != 0:
        sys.exit("benchmark: set-up child failed")
    return elapsed


# --- CLI workloads: each operation is a fresh process ---------------------------

def run_cli(argv: list[str], trace_file: Path | None = None, env_extra: dict | None = None):
    if trace_file is None:
        cmd = [sys.executable, "-m", "brandt_omega", *argv]
    else:
        cmd = [sys.executable, str(CHILD), "cli-trace", str(trace_file), *argv]
    t0 = time.perf_counter()
    p = spawn(cmd, env=child_env(env_extra))
    return time.perf_counter() - t0, p


def cli_output(op: dict, p: subprocess.CompletedProcess):
    """The parts of a CLI result the expectation covers, and its checked count."""
    if "Traceback" in p.stderr:
        return {"code": p.returncode, "traceback": True}, 0
    checked = sum(int(w.split("=")[1].rstrip(")")) for w in p.stdout.split() if w.startswith("(checked="))
    return {"code": p.returncode, "stdout": p.stdout}, checked


def cli_round(ops, trace_dir: Path | None = None, index: int = 0) -> dict:
    lat, out, files = [], [], []
    r0 = time.perf_counter()
    for n, op in enumerate(ops):
        f = trace_dir / f"r{index}-op{n}.json" if trace_dir else None
        dt, p = run_cli(op["argv"], f)
        lat.append(dt)
        out.append(p)
        files.append(f)
    return {"wall": time.perf_counter() - r0, "lat": lat, "out": out, "files": files}


def run_cli_rounds(ops, seconds, trace_dir: Path | None = None):
    """Whole rounds until `seconds` have passed; with a trace directory,
    untraced and traced rounds alternate, as in the in-process workloads."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(cli_round(ops))
        if trace_dir is not None:
            traced.append(cli_round(ops, trace_dir, len(traced)))
        if time.perf_counter() - start >= seconds:
            return plain, traced


def collect_cli_spans(traced: list) -> list:
    """Read back the span files of traced CLI calls; sum their counts per round."""
    span_sets = []
    for rnd in traced:
        rnd["counts"] = {}
        for f in rnd.pop("files"):
            data = json.loads(f.read_text())
            f.unlink()
            span_sets.append(data["spans"])
            for k, v in data["counts"].items():
                rnd["counts"][k] = rnd["counts"].get(k, 0) + v
    return span_sets


# --- scoring ---------------------------------------------------------------------

def op_checked(op: dict, res) -> int:
    kind = op["kind"]
    if isinstance(res, dict):  # the operation raised
        return 0
    if kind == "ac":
        return res[0][1] + res[1][1]
    if kind in ("t1-annihilation", "t1-self-product", "defect"):
        return res[1]
    if kind == "sweeps":
        return sum(row[2] for row in res)
    return 0


def score(ops, expected, rounds, cli: bool):
    """(attempted, failed, checked per round, first mismatch) over every round."""
    attempted = failed = 0
    per_round = []
    first = None
    for rnd in rounds:
        checked = 0
        for op, exp, res in zip(ops, expected, rnd["out"]):
            attempted += 1
            if cli:
                got, c = cli_output(op, res)
            else:
                got, c = res, op_checked(op, res)
            checked += c
            if got != exp:
                failed += 1
                first = first or f"{json.dumps(op)}: expected {json.dumps(exp)}, got {json.dumps(got)}"
        per_round.append(checked)
    return attempted, failed, per_round, first


def known_defects() -> tuple[int, int, list[str]]:
    """Inputs documented to exit 2 that the package does not handle yet."""
    bad, lines = 0, []
    for argv, env, code in inputs.CLI_KNOWN_DEFECTS:
        _, p = run_cli(argv, env_extra=env)
        ok = p.returncode == code and "Traceback" not in p.stderr
        bad += not ok
        shown = " ".join([f"{k}={v}" for k, v in env.items()] + argv)
        lines.append(f"  {'ok  ' if ok else 'FAIL'} exit {p.returncode} (documented {code}): {shown}")
    return len(inputs.CLI_KNOWN_DEFECTS), bad, lines


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it: (value, percentile)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# --- per-layer figures -------------------------------------------------------------

def startup_figures() -> dict:
    """Interpreter start-up and package import, each in fresh processes."""
    bare, imp = [], []
    code = ("import time; t = time.perf_counter(); import brandt_omega, brandt_omega.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        spawn([sys.executable, "-c", "pass"])
        bare.append(time.perf_counter() - t0)
        imp.append(float(spawn([sys.executable, "-c", code]).stdout))
    return {"startup.interpreter_ms": statistics.median(bare) * 1e3,
            "import.brandt_omega_ms": statistics.median(imp) * 1e3}


def layer_report(self_t: dict, traced_wall: float, n_rounds: int) -> list[str]:
    layers: dict[str, float] = {}
    for name, row in self_t.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_s"]
    lines = [f"  self time per traced round (traced round mean {traced_wall:.4f} s):"]
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:<14} {s / n_rounds:10.4f} s")
    lines.append("  top spans by self time (all traced rounds):")
    top = sorted(self_t.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    for name, row in top:
        lines.append(f"    {name:<44} calls {row['calls']:>7}  self {row['self_s']:9.4f} s"
                     f"  total {row['total_s']:9.4f} s")
    return lines


def traced_figures(workload, seed, plain, traced, span_sets, ops, expected, cli):
    per_round_counts = [rnd["counts"] for rnd in traced]
    repeat = all(c == per_round_counts[0] for c in per_round_counts)
    counts = per_round_counts[0]
    self_t = spans.merge_self_times([spans.self_times(s) for s in span_sets])
    checked = score(ops, expected, plain[:1], cli)[2]
    calls = counts.get("verification.assoc_product_calls", 0)
    lookups = counts.get("verification.assoc_lookups", 0)
    ru_calls = counts.get("topology->brandt.restricted_universe", 0)
    plain_wall = statistics.fmean(r["wall"] for r in plain)
    traced_wall = statistics.fmean(r["wall"] for r in traced)
    p = spawn([sys.executable, str(CHILD), "probe"])
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        sys.exit("benchmark: layer probe failed")
    metrics = {**startup_figures(), **json.loads(p.stdout)}
    metrics["checked_per_round"] = checked[0]
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    lines = [
        f"traced run: {len(plain)} untraced and {len(traced)} traced rounds, alternating",
        f"  tracing overhead: {traced_wall:.4f} - {plain_wall:.4f} = {traced_wall - plain_wall:+.4f} s per round",
        f"  exact counts per round{'' if repeat else ' (DIFFER between rounds)'}: checked {checked[0]}, "
        f"assoc product calls {calls} of {lookups} asked"
        + (f" (memo hit ratio {1 - calls / lookups:.4f})" if lookups else "")
        + f", topology restricted_universe calls {ru_calls}",
        f"  probe exact counts: assoc product calls {metrics['verification.assoc_product_calls']} "
        f"(memo hit ratio {metrics['verification.assoc_memo_hit_ratio']:.4f}), "
        f"restricted_universe calls {metrics['topology.restricted_universe_calls']}",
    ]
    if calls:
        lines.append(f"  est. core._mul time per round: {calls} calls x {metrics['core.mul_ns']:.0f} ns"
                     f" = {calls * metrics['core.mul_ns'] / 1e9:.4f} s")
    lines += layer_report(self_t, traced_wall, len(traced))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "metrics": metrics,
        "counts_per_round": {"checked": checked[0], **counts},
        "self_times": self_t, "spans": span_sets,
        "span_fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
    }))
    lines.append(f"  spans written to {path.relative_to(ROOT)}")
    return metrics, repeat, lines


UNITS = {
    "setup_s": "s", "wall_s": "s", "checks_per_s": "1/s", "ops_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ns", "ns"), ("_us", "us"), ("_ms", "ms"), ("_per_s", "1/s"),
                         ("_s", "s"), ("_ratio", "ratio"), ("_share", "ratio")):
        if name.endswith(suffix) or f"{suffix}." in name:
            return unit
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "brandt_omega" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC / 'brandt_omega'}; run from a checkout", file=sys.stderr)
        return 2

    ops, expected = inputs.GENERATORS[args.workload](args.seed)
    spec = json.dumps({"ops": ops, "seconds": args.seconds, "trace": args.trace})
    cli = args.workload not in IN_PROCESS

    # Installed users do not recompile, so warm the bytecode cache and the
    # file cache before anything is timed.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    setup_sample(spec)
    setup = statistics.median(setup_sample(spec) for _ in range(SETUP_SAMPLES))

    span_sets = []
    if cli:
        tdir = OUT / f"spans-{args.workload}-seed{args.seed}" if args.trace else None
        if tdir:
            tdir.mkdir(parents=True, exist_ok=True)
        plain, traced = run_cli_rounds(ops, args.seconds, tdir)
        if tdir:
            span_sets = collect_cli_spans(traced)
            tdir.rmdir()
    else:
        p = spawn([sys.executable, str(CHILD), "run"], stdin=spec)
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            print("benchmark: workload child failed", file=sys.stderr)
            return 1
        res = json.loads(p.stdout)
        plain, traced = res["rounds"], res.get("traced", [])
        for rounds in (plain, traced):
            for rnd in rounds[1:]:
                rnd["out"] = rnd["out"] or rounds[0]["out"]
        if traced:
            span_sets.append(res["spans"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    attempted, failed, checked, mismatch = score(ops, expected, plain + traced, cli)
    lines = [f"workload {args.workload}  seed {args.seed}  rounds {len(plain)}  ops {attempted}  failed {failed}"]
    if mismatch:
        lines.append(f"first mismatch: {mismatch[:600]}")
    if args.workload == "cli-short":
        n_probe, defects, probe_lines = known_defects()
        lines.append(f"known-defect inputs (outside the timed stream): {defects} of {n_probe} "
                     "differ from the documented exit code")
        lines += probe_lines
        lines.append(f"fail_ratio including them: {failed + defects}/{attempted + n_probe} = "
                     f"{(failed + defects) / (attempted + n_probe):.4f}")
    lines.append(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.4f}")

    correct = failed == 0
    if args.trace:
        metrics, repeat, trace_lines = traced_figures(
            args.workload, args.seed, plain, traced, span_sets, ops, expected, cli)
        correct = correct and repeat
        lines += trace_lines
        out_metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        lat = [x for rnd in plain for x in rnd["lat"]]
        timed = sum(rnd["wall"] for rnd in plain)
        tail_v, tail_pct = tail(lat)
        values = {
            "setup_s": setup,
            "wall_s": timed / len(plain),
            "checks_per_s": sum(checked) / timed,
            "ops_per_s": len(lat) / timed,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_v * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        out_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
        lines.append(f"latency_tail_ms is p{tail_pct:.1f} of {len(lat)} samples")
    for name, m in out_metrics.items():
        lines.append(f"  {name:<46} {m['value']:>16.6f} {m['unit']}")
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
