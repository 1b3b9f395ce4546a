"""Batch command-line surface over the library.

Exit codes: 0 success/pass, 1 verification failure, 2 parse error,
3 semantic error (element invalid for the family, and similar), 141 when
the reader of stdout closes it early (128 + SIGPIPE, as a shell reports a
tool stopped by a closed pipe).
The environment variable BRANDT_OMEGA_BOUND overrides the default sweep
bound of 6.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Callable

from . import core, equations, topology
from .brandt import BRANDT, embed, embed_inverse, fiber
from .core import ATOMS, ElemKind
from .errors import BrandtOmegaError, ParseError
from .families import are_translate_equivalent, nat, parse_family
from .report import VerificationReport
from .topology import AcNbhd, Tau1Nbhd
from .verification import VERIFY_CHECKS

DEFAULT_BOUND = 6


def _bound(args) -> int:
    if args.bound is not None:
        return args.bound
    raw = os.environ.get("BRANDT_OMEGA_BOUND")
    if raw is None:
        return DEFAULT_BOUND
    bound = nat(raw)
    if bound is None:
        raise ParseError(f"BRANDT_OMEGA_BOUND must be a natural, got {raw!r}")
    return bound


def _natural(text: str) -> int:
    # argparse type for bounds and coordinates: ASCII digits only
    n = nat(text)
    if n is None:
        raise argparse.ArgumentTypeError(f"invalid natural value: {text!r}")
    return n


def parse_nbhd(text: str):
    """`ac:(i1,j1)(i2,j2)...` or `t1:n`."""
    s = "".join(text.split())
    if s.startswith("ac:") and re.fullmatch(r"(?:\([0-9]+,[0-9]+\))*", s[3:]):
        coords = [nat(d) for d in re.findall(r"[0-9]+", s[3:])]
        if None not in coords:
            return AcNbhd(frozenset(zip(coords[::2], coords[1::2])))
    elif s.startswith("t1:") and (n := nat(s[3:])) is not None:
        return Tau1Nbhd(n)
    raise ParseError(f"bad neighborhood: {text!r}")


def parse_brandt_list(text: str) -> list:
    try:
        return [BRANDT.parse(m) for m in "".join(text.split()).split(",")]
    except ParseError:
        raise ParseError(f"bad element list: {text!r}") from None


def _emit(args, obj, *lines: str) -> None:
    """Print obj as one JSON line under --output json, else the text lines."""
    if args.output == "json":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _report(args, name: str, r: VerificationReport, kind: ElemKind) -> bool:
    """Print one check's outcome in kind's notation; True when it passed."""
    if r.passed:
        line = f"{name}: pass (checked={r.checked})"
    else:
        ce = " ".join(map(kind.fmt, r.counterexample))
        line = f"{name}: fail (counterexample={ce}; note={r.note})"
    _emit(args, {"name": name, "passed": r.passed, "checked": r.checked, "note": r.note,
                 "counterexample": r.counterexample and list(map(kind.to_json, r.counterexample))},
          line)
    return r.passed


# --- command handlers -----------------------------------------------------

def _cmd_mul(args, f) -> int:
    kind = BRANDT if args.brandt else ATOMS
    a, b = kind.parse(args.a), kind.parse(args.b)
    kind.validate(a, f)
    kind.validate(b, f)
    r = kind.mul(a, b)
    _emit(args, kind.to_json(r), kind.fmt(r))
    return 0


def _cmd_solve(args, f) -> int:
    A, B = BRANDT.parse(args.a), BRANDT.parse(args.b)
    solve = equations.solve_left if args.left else equations.solve_right
    result = solve(A, B, f)
    if isinstance(result, equations.InfiniteZeroCase):
        _emit(args, {"infinite": result.description}, f"infinite: {result.description}")
        return 0
    sols = result.solutions
    _emit(args, {"solutions": [BRANDT.to_json(x) for x in sols]}, *map(BRANDT.fmt, sols))
    return 0


def _cmd_chain(args, f) -> int:
    chain = core.maximal_chain_down(ATOMS.parse(args.elem), f)
    _emit(args, [ATOMS.to_json(e) for e in chain], " ".join(map(ATOMS.fmt, chain)))
    return 0


def _census_dot(f, bound: int) -> str:
    atoms = core.census_atoms(f, bound)
    nodes = [core.ZERO] + [core.AtomElem(i, i, k) for i in range(bound + 1) for k in atoms]
    lines = ["digraph idempotent_order {", "  rankdir=BT;"]
    for e in nodes:
        lines.append(f'  "{ATOMS.fmt(e)}";')
    node_set = set(nodes)
    for e in nodes[1:]:
        (pred,) = core.immediate_predecessors(e, f)
        if pred in node_set:
            lines.append(f'  "{ATOMS.fmt(pred)}" -> "{ATOMS.fmt(e)}";')
    lines.append("}")
    return "\n".join(lines)


def _cmd_census(args, f) -> int:
    bound = _bound(args)
    if args.output == "dot":
        print(_census_dot(f, bound))
        return 0
    census = core.idempotent_chain_census(f, bound)
    _emit(args, {str(length): count for length, count in census.items()},
          *(f"{length} {count}" for length, count in census.items()))
    return 0


def _cmd_iso(args, f) -> int:
    n = are_translate_equivalent(f, parse_family(args.other))
    _emit(args, {"n": n}, f"n={n}" if n is not None else "not-isomorphic")
    return 0


def _cmd_fiber(args, f) -> int:
    elems = fiber(args.row, args.col, f)
    _emit(args, [BRANDT.to_json(e) for e in elems], *map(BRANDT.fmt, elems))
    return 0


def _cmd_embed(args, f) -> int:
    src, dst, image = (BRANDT, ATOMS, embed_inverse) if args.inverse else (ATOMS, BRANDT, embed)
    x = image(src.parse(args.elem), f)
    _emit(args, dst.to_json(x), dst.fmt(x))
    return 0


def _cmd_order(args, f) -> int:
    x, y = ATOMS.parse(args.x), ATOMS.parse(args.y)
    ATOMS.validate(x, f)
    ATOMS.validate(y, f)
    result = core.nat_leq(x, y)
    _emit(args, {"result": result}, "true" if result else "false")
    return 0


def _cmd_ac_check(args, f) -> int:
    bound = _bound(args)
    u = parse_nbhd(args.nbhd)
    if not isinstance(u, AcNbhd):
        raise ParseError("ac-check needs an ac: neighborhood")
    x = BRANDT.parse(args.elem)
    r = topology.check_shift_continuity_ac(u, x, f, bound)
    inv = topology.check_inversion_ac(u, f, bound)
    passed = [_report(args, "shift-continuity", r, BRANDT), _report(args, "inversion", inv, BRANDT)]
    return 0 if all(passed) else 1


def _cmd_t1_check(args, f) -> int:
    bound = _bound(args)
    u = Tau1Nbhd(args.n)
    if args.elem is not None:
        r = topology.check_continuity_tau1(u, BRANDT.parse(args.elem), f, bound)
    else:
        r = topology.tau1_self_product_check(u, f, bound)
    return 0 if _report(args, "t1-continuity", r, BRANDT) else 1


def _cmd_prop49(args, f) -> int:
    bound = _bound(args)
    u = parse_nbhd(args.nbhd)
    M = parse_brandt_list(args.m)
    ok = topology.check_prop49_condition(u, M, f, bound)
    _emit(args, {"result": ok}, "true" if ok else "false")
    return 0 if ok else 1


def _cmd_witness(args, f) -> int:
    a = BRANDT.parse(args.a)
    D = parse_brandt_list(args.d)
    for x in (a, *D):
        BRANDT.validate(x, f)
    w = topology.find_zero_witness(a, D)
    _emit(args, None if w is None else BRANDT.to_json(w), "none" if w is None else BRANDT.fmt(w))
    return 0 if w is not None else 1


def _cmd_verify(args, f) -> int:
    bound = _bound(args)
    # With no atom <= bound both windows hold only the zero, and every sweep
    # passes on it alone; that still exits 0, but the output says so.
    empty = f.support.count_upto(bound) == 0
    degenerate = f"window holds only the zero: no atom <= {bound}"
    if empty and args.output == "text":
        print(f"note: {degenerate}")
    passed = []
    for name, run, kind in VERIFY_CHECKS:
        r = run(f, bound)
        if empty:
            r = r._replace(note=f"{r.note}; {degenerate}")
        passed.append(_report(args, name, r, kind))
    return 0 if all(passed) else 1


# --- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandt-omega",
        description="Exact arithmetic and finite-bound verification for the "
        "atomic-family semigroup and its Brandt realization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subs, name: str, summary: str, func, bound: bool = False, dot: bool = False):
        p = subs.add_parser(name, help=summary)
        p.add_argument("--family", required=True, help='support, e.g. "0,1,3" or "0,2,+7"')
        outputs = ["text", "json", "dot"] if dot else ["text", "json"]
        p.add_argument("--output", choices=outputs, default="text")
        if bound:
            p.add_argument("--bound", type=_natural, default=None,
                           help=f"sweep bound (default {DEFAULT_BOUND}, env BRANDT_OMEGA_BOUND)")
        p.set_defaults(func=func)
        return p

    p = command(sub, "mul", "multiply two elements", _cmd_mul)
    p.add_argument("--brandt", action="store_true", help="use (row;val;col) elements")
    p.add_argument("a")
    p.add_argument("b")

    p = command(sub, "solve", "solve A*X=B (left) or X*A=B (right)", _cmd_solve)
    side = p.add_mutually_exclusive_group(required=True)
    side.add_argument("--left", action="store_true")
    side.add_argument("--right", action="store_true")
    p.add_argument("a")
    p.add_argument("b")

    p = command(sub, "chain", "maximal descending chain from an element", _cmd_chain)
    p.add_argument("elem")

    command(sub, "census", "chain-length census of idempotents", _cmd_census, bound=True, dot=True)

    p = command(sub, "iso", "decide translate equivalence of two families", _cmd_iso)
    p.add_argument("--other", required=True, help="second support")

    p = command(sub, "fiber", "list a fiber of the restricted subsemigroup", _cmd_fiber)
    p.add_argument("row", type=_natural)
    p.add_argument("col", type=_natural)

    p = command(sub, "embed", "map an element into the Brandt extension (or back)", _cmd_embed)
    p.add_argument("--inverse", action="store_true", help="map a Brandt element back")
    p.add_argument("elem")

    p = command(sub, "order", "natural partial order test x <= y", _cmd_order)
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("topo", help="topology checks at a finite bound")
    topo_sub = p.add_subparsers(dest="topo_cmd", required=True)

    q = command(topo_sub, "ac-check", "shift continuity and inversion for an ac: neighborhood",
                _cmd_ac_check, bound=True)
    q.add_argument("--nbhd", required=True, help='e.g. "ac:(2,5)"')
    q.add_argument("--elem", required=True, help="translating element (row;val;col)")

    q = command(topo_sub, "t1-check", "threshold-neighborhood continuity", _cmd_t1_check, bound=True)
    q.add_argument("--n", type=_natural, required=True, help="threshold of the neighborhood")
    q.add_argument("--elem", default=None, help="optional translating element")

    q = command(topo_sub, "prop49", "neighborhood avoids all phi/psi preimages of M", _cmd_prop49,
                bound=True)
    q.add_argument("--nbhd", required=True)
    q.add_argument("--m", required=True, help='idempotents, e.g. "(5;0;5),(7;0;7)"')

    q = command(topo_sub, "witness", "find d in D annihilated by a on either side", _cmd_witness)
    q.add_argument("--a", required=True)
    q.add_argument("--d", required=True, help="comma-separated candidates")

    command(sub, "verify", "run the five core verification sweeps", _cmd_verify, bound=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every command takes --family; a malformed one is an error even
        # where the command itself needs no family
        return args.func(args, parse_family(args.family))
    except BrandtOmegaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ParseError) else 3


def exit_with(main: Callable[[], int | None]) -> None:
    """sys.exit(main()), but exit 141 without a traceback if stdout's reader
    has closed the pipe; fd 1 then points at os.devnull, so the
    interpreter's final flush cannot raise again."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


def run() -> None:
    exit_with(main)


if __name__ == "__main__":
    run()
