"""Command-line verification harness and data front end.

Subcommands: ``verify`` (run an identity suite and exit nonzero on any
failure), ``act`` (apply a crystal operator to a JSON state file),
``graph`` (export a neighborhood of the free crystal as DOT), and
``trop`` (tropicalize a named chart formula or an explicit positive
expression and evaluate it at an integer point).  All commands are
deterministic given their flags; randomized suites take ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import charts, gyt, ud, verify
from .ratfun import parse as parse_ratfun


def _print(line: str):
    sys.stdout.write(line + "\n")


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite, args.n, seed=args.seed, cap=args.cap)
    if args.json:
        _print(json.dumps([r.to_json() for r in reports], indent=2))
    else:
        for r in reports:
            mark = "ok" if r.holds else "FAIL"
            _print(f"[{mark}] {r.check} ({r.elapsed:.2f}s)")
            if not r.holds:
                _print(f"       counterexample: {json.dumps(r.counterexample)}")
        good = sum(1 for r in reports if r.holds)
        _print(f"{good}/{len(reports)} checks hold")
    return 0 if all(r.holds for r in reports) else 1


# ---------------------------------------------------------------------------
# act


def _load_state(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"state file {path} is not JSON ({exc})") from None


def _save_state(path: str, data: dict):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


def cmd_act(args) -> int:
    data = _load_state(args.state)
    out_path = args.out or args.state
    if args.kind == "sharp":
        v = gyt.SharpElement.from_json(data)
        try:
            z = int(args.param)
        except ValueError:
            raise ValueError(f"--param must be a signed integer, got {args.param!r}") from None
        moved = gyt.crystal_power(args.i, z, v)
        _save_state(out_path, moved.to_json())
        _print(f"sharp element: direction {args.i}, power {z:+d} -> {out_path}")
        return 0
    cls = charts.TorusPointA if args.kind == "geom-a" else charts.TorusPointB
    point = cls.from_json(data)
    alpha = parse_ratfun(args.param)
    if alpha.variables or not alpha.eval({}) > 0:
        # the action keeps the positive chart only for positive parameters
        raise ValueError(f"{args.kind} needs a positive rational --param, got {args.param!r}")
    moved = point.act(args.i, alpha)
    _save_state(out_path, moved.to_json())
    _print(f"chart-{point.chart} point: direction {args.i}, parameter {args.param} -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# graph


def _node_name(v: gyt.SharpElement) -> str:
    return ",".join(str(x) for x in v.key())


def cmd_graph(args) -> int:
    if args.radius > args.max_radius:
        raise ValueError(f"radius {args.radius} exceeds the cap {args.max_radius}")
    root = gyt.SharpElement.from_json(_load_state(args.root))
    sl = gyt.GraphSlice(root, args.radius)
    ids = {v: f"v{idx}" for idx, v in enumerate(sl.nodes)}
    arcs = sorted((ids[v], ids[w], i, d) for v, i, d, w in sl.arcs)
    lines = ["digraph sharp_crystal {", "  rankdir=TB;"]
    for v in sl.nodes:
        lines.append(f'  {ids[v]} [label="{_node_name(v)}"];')
    for src, dst, i, direction in arcs:
        color = "crimson" if direction == "e" else "steelblue"
        lines.append(f'  {src} -> {dst} [label="{i}", color="{color}"];')
    lines.append("}")
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    if args.json:
        payload = {
            "nodes": [v.to_json() for v in sl.nodes],
            "arcs": [
                {"from": src, "to": dst, "i": i, "direction": direction}
                for src, dst, i, direction in arcs
            ],
        }
        _print(json.dumps(payload, indent=2))
    else:
        _print(f"{len(sl.nodes)} nodes, {len(arcs)} arcs -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# trop


def _named_formula(args):
    n = args.n
    ratio_names = charts.coordinate_names(n, "A")
    if args.formula == "alpha_ik":
        if args.i is None or args.k is None:
            raise ValueError("alpha_ik needs --i and --k")
        q = charts.TorusPointB.symbolic(n)
        f = charts.ratio_act_coefficient(args.i, args.k, q.coords, charts.crystal_parameter())
        return [(f"alpha({args.i},{args.k})", f)], ratio_names + ("z",)
    if args.formula == "gammaA":
        q = charts.TorusPointB.symbolic(n)
        return [(f"w{i}", q.weight_component(i)) for i in range(1, n + 1)], ratio_names
    if args.formula in ("xi", "xi_inv"):
        source = charts.TorusPointA if args.formula == "xi" else charts.TorusPointB
        point = source.symbolic(n)
        image = point.to_ratio() if args.formula == "xi" else point.to_factor()
        return (
            [(f"{k},{j}", image.coords[(k, j)]) for (k, j) in charts.index_pairs(n)],
            charts.coordinate_names(n, source.chart),
        )


def cmd_trop(args) -> int:
    if not args.formula and not args.expr_file:
        raise ValueError("trop needs --formula or --expr-file")
    try:
        point = json.loads(args.point)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--point must be a JSON object ({exc})") from None
    if not isinstance(point, dict):
        raise ValueError("--point must be a JSON object")
    if args.expr_file:
        with open(args.expr_file, "r", encoding="utf-8") as handle:
            f = parse_ratfun(handle.read().strip())
        components, order = [("expr", f)], None
    else:
        components, order = _named_formula(args)
    values = {name: ud.tropicalize(f, order).eval(point) for name, f in components}
    if args.json:
        _print(json.dumps(values))
    else:
        for name, val in values.items():
            _print(f"{name} = {val}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomcrystal",
        description="verification harness for the unipotent geometric crystal, "
        "its tropicalization, and the free tableau crystal",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an identity suite")
    p_verify.add_argument("suite", choices=verify.SUITE_NAMES)
    p_verify.add_argument("--n", type=int, required=True, help="rank")
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_verify.add_argument("--cap", type=int, default=None, help="override the suite rank cap")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_act = sub.add_parser("act", help="apply a crystal operator to a state file")
    p_act.add_argument("kind", choices=["sharp", "geom-a", "geom-A"])
    p_act.add_argument("state", help="JSON state file")
    p_act.add_argument("--i", type=int, required=True, help="direction index")
    p_act.add_argument(
        "--param",
        required=True,
        help="signed integer power for sharp, positive rational for geom kinds",
    )
    p_act.add_argument("--out", default=None, help="output file (default: in place)")
    p_act.set_defaults(func=cmd_act)

    p_graph = sub.add_parser("graph", help="export a crystal neighborhood as DOT")
    p_graph.add_argument("root", help="JSON sharp-element file")
    p_graph.add_argument("--radius", type=int, required=True)
    p_graph.add_argument("--out", required=True, help="output DOT file")
    p_graph.add_argument("--max-radius", type=int, default=4)
    p_graph.add_argument("--json", action="store_true", help="also dump nodes/arcs as JSON")
    p_graph.set_defaults(func=cmd_graph)

    p_trop = sub.add_parser("trop", help="tropicalize and evaluate")
    p_trop.add_argument(
        "--formula",
        choices=["alpha_ik", "gammaA", "xi", "xi_inv"],
        help="named chart formula",
    )
    p_trop.add_argument("--expr-file", default=None, help="file with a positive expression")
    p_trop.add_argument("--n", type=int, default=1, help="rank for named formulas")
    p_trop.add_argument("--i", type=int, default=None)
    p_trop.add_argument("--k", type=int, default=None)
    p_trop.add_argument(
        "--point",
        required=True,
        help='integer point as JSON, e.g. \'{"A[1,1]": 2, "z": 1}\'',
    )
    p_trop.add_argument("--json", action="store_true")
    p_trop.set_defaults(func=cmd_trop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError, LookupError, ArithmeticError, RecursionError) as exc:
        # the one place that reports bad input: unreadable files, malformed
        # or inexact values, indices out of range, partial maps undefined at
        # the given point, and input nested deeper than the recursive-descent
        # parser can follow (no file has been written by then)
        _print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
