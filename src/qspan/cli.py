"""Command line front end.

Subcommands: spectral, check-tree, extremal, verify-theorem, proof-sweep.
Exit codes: 0 success, 1 verification failure (counterexample, failed sweep,
internal defect), 2 input error. JSON reports carry "schema": "1" and print
floats with 12 significant digits in fixed notation so outputs diff cleanly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal

from . import verify
from .errors import CapacityError, InputError, InternalError, NumericalError
from .extremal import (
    ExtremalParams,
    build_family,
    family_char_coeffs,
    family_quotient,
    family_root,
    spectral_threshold,
)
from .graph_core import (
    DegreeDemand,
    _decimal,
    format_graph,
    read_demands,
    read_graph,
    write_graph,
)
from .spectral import signless_laplacian, spectral_radii
from .trees import construct_tree


def format_float(x: float) -> str:
    """12 significant digits, fixed notation, for stable report diffs."""
    if not math.isfinite(x):
        raise InternalError(f"cannot format non-finite value {x!r}")
    if x == 0.0:
        return "0.000000000000"
    # round first, so a carry (9.99...9 -> 10.0...0) still leaves 12 digits
    d = Context(prec=12, rounding=ROUND_HALF_EVEN).plus(Decimal(x))
    return format(d.quantize(Decimal(1).scaleb(d.adjusted() - 11)), "f")


_encode = json.encoder.encode_basestring_ascii
_BASES = (dict, list, tuple, bool, float, int, str)
# leaf writers by exact type, called straight from a dict or scalar list; subclasses go through _emit
_LEAVES = {bool: {False: "false", True: "true"}.__getitem__, float: format_float, int: str, str: _encode,
           type(None): {None: "null"}.__getitem__}


def _emit(value, indent: int) -> str:
    kind = type(value)
    if kind not in _BASES:   # a subclass takes its base's branch, as isinstance would
        kind = next((base for base in _BASES if isinstance(value, base)), kind)
    pad = "  " * indent
    if kind is dict:
        if not value:
            return "{}"
        inner = ",\n".join([f'{pad}  {_encode(str(k))}: '
                            f'{_emit(v, indent + 1) if (leaf := _LEAVES.get(type(v))) is None else leaf(v)}'
                            for k, v in value.items()])
        return "{\n" + inner + "\n" + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if any(isinstance(v, dict) for v in value):
            inner = ",\n".join(f"{pad}  {_emit(v, indent + 1)}" for v in value)
            return "[\n" + inner + "\n" + pad + "]"
        return "[" + ", ".join([_emit(v, indent) if (leaf := _LEAVES.get(type(v))) is None else leaf(v)
                                for v in value]) + "]"
    leaf = _LEAVES.get(kind)
    return json.dumps(value) if leaf is None else leaf(value)


def emit_json(report: dict) -> str:
    return _emit(report, 0)


def integer(text: str) -> int:
    """An option's integer, ASCII -?[0-9]+ as in the input files: int() alone
    would also read 1_0, +3, ' 3 ' and non-ASCII digits."""
    _decimal(text)
    return int(text)


def _load_demand(args, m: int) -> DegreeDemand:
    if args.k is not None:
        return DegreeDemand.uniform(m, args.k)
    f = read_demands(args.f)
    if len(f) != m:
        raise InputError(f"{args.f}: {len(f)} demands for a graph with m={m} A-vertices")
    return f


def _cmd_spectral(args) -> int:
    g = read_graph(args.graph)
    (q,), (residual,) = spectral_radii(signless_laplacian(g)[None], tol=args.tol)
    report = {
        "schema": "1",
        "m": g.m,
        "n": g.n,
        "q": float(q),
        "residual": float(residual),
        "iterations": 0,
        "method": "eigh",   # with "iterations", a fixed schema-1 label, not the method used
    }
    print(emit_json(report))
    return 0


def _cmd_check_tree(args) -> int:
    g = read_graph(args.graph)
    f = _load_demand(args, g.m)
    result = construct_tree(g, f)
    if result.feasible:
        report = {
            "schema": "1",
            "feasible": True,
            "tree": [[a, b] for a, b in result.tree.edges],
        }
    else:
        report = {
            "schema": "1",
            "feasible": False,
            "violating_set": list(result.violation.vertices),
        }
    print(emit_json(report))
    return 0


def _cmd_extremal(args) -> int:
    p = ExtremalParams(args.k, args.m, args.n, args.s)
    g = build_family(p)
    mnsr = (p.m, p.n, p.s, p.r)
    qm = family_quotient(*mnsr)
    coeffs = family_char_coeffs(*mnsr)
    q1 = family_root(*mnsr)
    qstar = spectral_threshold(p.k, p.m, p.n)
    checks = verify.point_checks(p)

    lines = [
        f"family member: k={p.k} m={p.m} n={p.n} s={p.s}",
        f"graph: {g.m}+{g.n} vertices, {g.edge_count} edges",
    ]
    if args.out:
        write_graph(g, args.out)
        lines.append(f"graph file written to {args.out}")
    else:
        lines.append("graph file:")
        lines.extend("  " + ln for ln in format_graph(g).splitlines())
    lines.append(f"quotient matrix (block sizes {p.s}, {p.m - p.s}, {p.r}, {p.n - p.r}):")
    width = max(len(str(x)) for row in qm for x in row)
    for row in qm:
        lines.append("  " + "  ".join(str(x).rjust(width) for x in row))
    lines.append(f"characteristic coefficients (ascending): {list(coeffs.coeffs)}")
    lines.append(f"largest quotient root: {format_float(q1)}")
    lines.append(f"threshold at s=1:      {format_float(qstar)}")
    all_ok = True
    for name, ok in checks.items():
        lines.append(f"check {name}: {'PASS' if ok else 'FAIL'}")
        all_ok = all_ok and ok
    print("\n".join(lines))
    return 0 if all_ok else 1


def _cmd_verify_theorem(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise InputError(f"jobs must be >= 1, got {args.jobs}")
    report = verify.certify_threshold(args.k, args.m, args.n)
    payload = {
        "schema": "1",
        "params": report.params,
        "qstar": report.qstar,
        "graphs_total": report.graphs_total,
        "graphs_connected": report.graphs_connected,
        "graphs_above_bound": report.graphs_above_bound,
        "counterexamples": report.counterexamples,
        "extremal_found": report.extremal_found,
    }
    print(emit_json(payload))
    ok = not report.counterexamples and report.extremal_found
    print(
        f"checked {report.graphs_total} graphs ({report.graphs_connected} connected), "
        f"{report.graphs_above_bound} at or above the threshold, "
        f"{len(report.counterexamples)} counterexamples, "
        f"extremal graph {'found' if report.extremal_found else 'MISSING'}: "
        f"{'OK' if ok else 'FAILED'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _parse_range(text: str, name: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) > 2:
            raise ValueError
        lo, hi = integer(parts[0]), integer(parts[-1])
    except ValueError:
        raise InputError(f"{name}: expected A..B or a single integer, got {text!r}") from None
    if lo > hi:
        raise InputError(f"{name}: empty range {text!r}")
    return lo, hi


def _cmd_proof_sweep(args) -> int:
    k_lo, k_hi = _parse_range(args.k_range, "--k-range")
    m_lo, m_hi = _parse_range(args.m_range, "--m-range")
    e_lo, e_hi = _parse_range(args.n_extra, "--n-extra")
    report = verify.separation_sweep(
        range(k_lo, k_hi + 1),
        range(m_lo, m_hi + 1),
        range(e_lo, e_hi + 1),
        seed=args.seed,
    )
    payload = {
        "schema": "1",
        "grid": report.grid,
        "points": report.points,
        "failures": report.failures,
    }
    print(emit_json(payload))
    boundary = sum(1 for pt in report.points if pt["expected_boundary"])
    print(
        f"swept {len(report.points)} points ({boundary} expected boundary), "
        f"{len(report.failures)} failures: "
        f"{'OK' if not report.failures else 'FAILED'}",
        file=sys.stderr,
    )
    return 0 if not report.failures else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qspan argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="qspan",
        description="Certify degree-demanded spanning trees and the spectral "
                    "threshold that forces them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", help="signless Laplacian spectral radius of a graph file")
    p.add_argument("graph", help="graph file (p bip header plus e lines)")
    p.add_argument("--tol", type=float, default=1e-10, help="residual tolerance")
    p.set_defaults(func=_cmd_spectral)

    p = sub.add_parser("check-tree", help="decide demanded spanning tree feasibility")
    p.add_argument("graph", help="graph file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=integer, help="uniform demand for every A-vertex")
    group.add_argument("--f", help="demand file, one integer >= 2 per line, m lines")
    p.set_defaults(func=_cmd_check_tree)

    p = sub.add_parser("extremal", help="build a family member and report its data")
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--s", type=integer, required=True)
    p.add_argument("--out", help="write the graph file here instead of inlining it")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("verify-theorem", help="exhaustive threshold census at one point")
    p.add_argument("--k", type=integer, required=True)
    p.add_argument("--m", type=integer, required=True)
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--jobs", type=integer, default=None,
                   help="accepted for compatibility and ignored; must be >= 1")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("proof-sweep", help="verify identities and inequalities over a grid")
    p.add_argument("--k-range", default="3..5", help="A..B inclusive (default 3..5)")
    p.add_argument("--m-range", default="3..5", help="A..B inclusive (default 3..5)")
    p.add_argument("--n-extra", default="1..5",
                   help="offsets added to (k-1)*m; 0 is the expected boundary (default 1..5)")
    p.add_argument("--seed", type=integer, default=0, help="only echoed in the report's grid")
    p.set_defaults(func=_cmd_proof_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (InputError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
