"""Command-line interface.

Subcommands: parse-check, catalog, run, classify, landau, mollify, class-a.
The worker count for seminorm tables is capped by the COLOMBEAU_THREADS
environment variable; results are identical at any thread count.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import CATALOG, catalog_list, catalog_net, parse_catalog_spec
from .config import ConfigError, load_config_file
from .expr import ParseError, node_count, parse, to_text
from .mollify import (
    CONVERGENCE_GRID,
    build_mollifier,
    class_A_membership,
    convergence_experiment,
)
from .nets import CompactBox, ExpressionNet, FunctionNet, NetError
from .regularity import build_report, landau_check, psequence
from .runner import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_UNSTABLE,
    EXIT_VIOLATION,
    run_config,
)
from .scale import EpsGrid, ScaleError, default_grid, jsonable


def _print_json(doc: dict) -> None:
    print(json.dumps(jsonable(doc), sort_keys=True, indent=2))


def _net_from_spec(spec: str, hint: str, support: Optional[str]) -> FunctionNet:
    """A catalog name like 'multiscale(8)', or an inline 1-d expression."""
    try:
        parse_catalog_spec(spec)
    except NetError:
        pass
    else:
        return catalog_net(spec)
    expr = parse(spec, dimension=1)
    box = None
    if support:
        lo, hi = _interval(support)
        box = CompactBox.interval(lo, hi)
    return ExpressionNet(1, expr, Fraction(hint), box, name=spec)


def _interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise NetError(f"interval must be 'lo,hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise NetError(f"empty interval {text!r}")
    return lo, hi


def _compacts(arg: Optional[str]) -> tuple[CompactBox, ...]:
    if not arg:
        from .catalog import REFERENCE_COMPACTS

        return REFERENCE_COMPACTS
    out = []
    for union in arg.split(";"):
        boxes = [[_interval(b)] for b in union.split("|")]
        out.append(CompactBox.of(*boxes))
    return tuple(out)


def _grid(args) -> EpsGrid:
    return EpsGrid(args.eps0, args.ratio, args.count)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _add_net_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", required=True, help="catalog name (e.g. multiscale(8)) or expression")
    p.add_argument("--hint", default="0", help="oscillation hint for inline expressions")
    p.add_argument("--support", default=None, help="declared support interval lo,hi")
    p.add_argument("--compacts", default=None, help="compacts, e.g. '0,1;-1,2' (';' separates unions, '|' boxes)")
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--eps0", type=float, default=0.5)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--count", type=int, default=20)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="colombeau",
        description="Seminorm estimation and regularity classification for generalized-function nets.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse-check", help="parse an expression and print its canonical form")
    p.add_argument("expression")
    p.add_argument("--dimension", type=int, default=1)

    sub.add_parser("catalog", help="list the example nets and their exponent oracles")

    p = sub.add_parser("run", help="execute a JSON experiment config")
    p.add_argument("config")

    p = sub.add_parser("classify", help="full regularity report for a net")
    _add_net_options(p)
    p.add_argument("--a", default="0.5,1.0,1.5,2.0", help="rate thresholds, comma separated")
    p.add_argument("--bases", default=None, help="growth bases, comma separated")

    p = sub.add_parser("landau", help="log-convexity check along the P_k sequence")
    _add_net_options(p)

    p = sub.add_parser("mollify", help="mollification convergence experiment")
    _add_net_options(p)
    p.add_argument("--n", default="1,2,3,4", help="mollification orders")
    p.add_argument("--k", type=int, default=0, help="seminorm order of the difference")
    p.add_argument("--order", type=int, default=None, help="quadrature order per axis")
    p.add_argument("--r", type=float, default=0.5, help="compact enlargement for the reference")
    p.set_defaults(ratio=CONVERGENCE_GRID.ratio)

    p = sub.add_parser("class-a", help="polynomial-rate membership check")
    _add_net_options(p)
    p.add_argument("--N", type=int, required=True)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "parse-check":
            e = parse(args.expression, args.dimension)
            print(to_text(e))
            print(f"nodes: {node_count(e)}")
            return EXIT_OK
        if args.command == "catalog":
            print(catalog_list())
            return EXIT_OK
        if args.command == "run":
            cfg = load_config_file(args.config)
            result = run_config(cfg)
            for f in result.files:
                print(f)
            return result.exit_code
        net = _net_from_spec(args.net, args.hint, args.support)
        Ks = _compacts(args.compacts)
        grid = _grid(args)
        if args.command == "classify":
            a_values = tuple(float(x) for x in args.a.split(","))
            bases = (
                tuple(float(x) for x in args.bases.split(","))
                if args.bases
                else (1.0, math.e, math.e**2)
            )
            report = build_report(net, Ks, grid, k_max=args.kmax, a_values=a_values, bases=bases)
            _print_json(report.to_json_dict())
            return EXIT_OK if all(report.stable) else EXIT_UNSTABLE
        if args.command == "landau":
            seq = psequence(net, Ks[0], grid, k_max=args.kmax)
            rep = landau_check(seq)
            _print_json(
                {
                    "all_ok": rep.all_ok,
                    "entries": [
                        {"k": e.k, "verdict": e.verdict, "margin": e.margin}
                        for e in rep.entries
                    ],
                }
            )
            if not rep.all_ok:
                return EXIT_VIOLATION
            skipped = any(e.verdict == "skipped" for e in rep.entries)
            return EXIT_UNSTABLE if skipped else EXIT_OK
        if args.command == "mollify":
            m = build_mollifier(net.dimension, args.order) if args.order else None
            record = convergence_experiment(
                net, Ks[0], args.k, _int_list(args.n), grid, r=args.r, mollifier=m
            )
            _print_json(record.to_json_dict())
            if not record.all_ok:
                return EXIT_VIOLATION
            return EXIT_OK if all(e.stable for e in record.entries) else EXIT_UNSTABLE
        if args.command == "class-a":
            rep = class_A_membership(net, args.N, Ks, args.kmax, grid)
            _print_json(
                {
                    "N": rep.N,
                    "verdict": rep.verdict,
                    "rows": [
                        {
                            "compact": r.K.describe(),
                            "k": r.k,
                            "v_hat": r.v_hat,
                            "bound": r.bound,
                            "ok": r.ok,
                            "stable": r.stable,
                        }
                        for r in rep.rows
                    ],
                }
            )
            return EXIT_UNSTABLE if rep.verdict == "inconclusive" else EXIT_OK
        raise ConfigError(f"unknown command {args.command}")  # pragma: no cover
    except (ConfigError, ParseError, NetError, ScaleError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
