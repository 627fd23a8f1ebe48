"""Command-line interface.

Subcommands: parse-check, catalog, run, classify, landau, mollify, class-a.
Each analysis subcommand (classify, landau, mollify, class-a) is a
one-experiment config: its flags become a config document (kinds
classify, landau, mollify-converge and class-a), ``load_config`` validates
it, and ``runner.run_experiment`` and ``runner.exit_code`` compute the
verdicts and the exit code, the same code ``colombeau run`` uses.  The
subcommand prints the experiment's JSON document instead of writing files;
class-a prints each compact's description in its rows, where the class-a
CSV of ``colombeau run`` gives the compact's index in ``compacts``.  The worker count for
seminorm tables is capped by the COLOMBEAU_THREADS environment variable;
results are identical at any thread count.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .catalog import REFERENCE_COMPACTS, catalog_list, parse_catalog_spec
from .config import load_config, load_config_file
from .expr import node_count, parse, to_text
from .mollify import CONVERGENCE_GRID
from .nets import NetError
from .runner import EXIT_CONFIG, EXIT_OK, exit_code, run_config, run_experiment
from .scale import jsonable

# analysis subcommand -> the experiment kind it runs
_KINDS = {
    "classify": "classify",
    "landau": "landau",
    "mollify": "mollify-converge",
    "class-a": "class-a",
}


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _config_document(args) -> dict:
    """The one-experiment config that an analysis subcommand's flags stand for."""
    try:
        parse_catalog_spec(args.net)
        net = {"catalog": args.net}
    except NetError:  # an inline 1-d expression
        net = {"expression": args.net, "oscillation_hint": args.hint}
        if args.support:
            net["support_box"] = [[_floats(args.support)]]
    if args.compacts:  # ';' separates compacts, '|' the intervals of one union
        unions = args.compacts.split(";")
        compacts = [[[_floats(iv)] for iv in union.split("|")] for union in unions]
    else:
        compacts = [K.describe() for K in REFERENCE_COMPACTS]
    experiment = {"kind": _KINDS[args.command]}
    if args.command == "classify":
        experiment["a_values"] = _floats(args.a)
        if args.bases:
            experiment["bases"] = _floats(args.bases)
    elif args.command == "mollify":
        experiment.update(k=args.k, n_list=[int(n) for n in args.n.split(",")], r=args.r)
        if args.order:  # absent or 0: the default quadrature order
            experiment["quadrature_order"] = args.order
    elif args.command == "class-a":
        experiment["N"] = args.N
    doc = {
        "dimension": 1,
        "net": net,
        "compacts": compacts,
        "eps_grid": {"eps0": args.eps0, "ratio": args.ratio, "count": args.count},
        "experiments": [experiment],
    }
    if args.command != "mollify":  # mollify-converge reads no k_max
        doc["k_max"] = args.kmax
    return doc


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
        cfg = load_config(_config_document(args))
        outcome = run_experiment(cfg, *cfg.experiments)
        print(json.dumps(jsonable(outcome.document), sort_keys=True, indent=2))
        return exit_code([outcome])
    except (OSError, ValueError) as e:  # the package's error types are ValueErrors
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
