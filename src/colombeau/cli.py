"""Command-line interface.

Subcommands: parse-check, catalog, run, classify, landau, mollify, class-a.
Each analysis subcommand (classify, landau, mollify, class-a) is a
one-experiment config: its flags become a config document (kinds
classify, landau, mollify-converge and class-a) that holds only the flags
given, so the config defaults apply to the rest; ``load_config`` validates
it, and ``runner.run_experiment`` and ``runner.exit_code`` compute the
verdicts and the exit code, the same code ``colombeau run`` uses.  The
subcommand prints the experiment's JSON document instead of writing files;
class-a prints each compact's description in its rows, where the class-a
CSV of ``colombeau run`` gives the compact's index in ``compacts``.  The worker count for
seminorm tables is capped by the COLOMBEAU_THREADS environment variable;
results are identical at any thread count.  A malformed command line (an
unknown flag, ``--kmax x``) exits 1 with an ``error:`` line, as any other
configuration error does.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .catalog import REFERENCE_COMPACTS, catalog_list, parse_catalog_spec
from .config import ConfigError, load_config, load_config_file
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


# the flags whose text is a comma-separated list, by config key
_LISTS = {"a_values": _floats, "bases": _floats, "support_box": lambda t: [[_floats(t)]],
          "n_list": lambda t: [int(n) for n in t.split(",")]}


def _given(args, *keys: str) -> dict:
    """The config entry of each flag given, keyed by its dest."""
    given = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return {key: _LISTS[key](v) if key in _LISTS else v for key, v in given.items()}


def _config_document(args) -> dict:
    """The one-experiment config that an analysis subcommand's flags stand for."""
    try:
        parse_catalog_spec(args.net)
        net = {"catalog": args.net}
    except NetError:  # an inline 1-d expression
        net = {"expression": args.net}
    # load_config rejects both on a catalog net
    net.update(_given(args, "oscillation_hint", "support_box"))
    if args.compacts:  # ';' separates compacts, '|' the intervals of one union
        unions = args.compacts.split(";")
        compacts = [[[_floats(iv)] for iv in union.split("|")] for union in unions]
    else:
        compacts = [K.describe() for K in REFERENCE_COMPACTS]
    params = _given(args, "a_values", "bases", "k", "n_list", "r", "quadrature_order", "N")
    doc = {
        "dimension": 1,
        "net": net,
        "compacts": compacts,
        "experiments": [{"kind": _KINDS[args.command], **params}],
        **_given(args, "k_max"),
    }
    grid = _given(args, "eps0", "ratio", "count")
    if grid:
        doc["eps_grid"] = grid
    return doc


def _add_net_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--net", required=True, help="catalog name (e.g. multiscale(8)) or expression")
    p.add_argument("--hint", dest="oscillation_hint", help="oscillation hint for inline expressions")
    p.add_argument("--support", dest="support_box", help="declared support interval lo,hi")
    p.add_argument("--compacts", help="compacts, e.g. '0,1;-1,2' (';' separates unions, '|' boxes)")
    p.add_argument("--kmax", dest="k_max", type=int)
    p.add_argument("--eps0", type=float)
    p.add_argument("--ratio", type=float)
    p.add_argument("--count", type=int)


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a configuration error (exit 1), where
    argparse would exit 2, the code of an unstable fit."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    p.add_argument("--a", dest="a_values", help="rate thresholds, comma separated")
    p.add_argument("--bases", help="growth bases, comma separated")

    p = sub.add_parser("landau", help="log-convexity check along the P_k sequence")
    _add_net_options(p)

    p = sub.add_parser("mollify", help="mollification convergence experiment")
    _add_net_options(p)
    p.add_argument("--n", dest="n_list", help="mollification orders")
    p.add_argument("--k", type=int, help="seminorm order of the difference")
    p.add_argument("--order", dest="quadrature_order", type=int, help="quadrature order per axis")
    p.add_argument("--r", type=float, help="compact enlargement for the reference")
    p.set_defaults(ratio=CONVERGENCE_GRID.ratio)

    p = sub.add_parser("class-a", help="polynomial-rate membership check")
    _add_net_options(p)
    p.add_argument("--N", type=int, required=True)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
