"""Config-driven experiment execution with CSV/JSON outputs.

Each experiment kind has one function, ``EXPERIMENTS[kind](cfg, params)``,
that turns a validated config into an ``Outcome``; ``regular-bound``
checks ``p_k(u ⋆ ψ_{ε^n}) ≤ ε^(−nk−1) sup_L |u|`` for each ``n`` in
``n_list``, ``k`` in ``k_list`` and compact.  ``run_experiment`` calls one
and turns a run-time failure of the package's own checks into an outcome
with an ``error`` entry.  ``run_config`` writes the outcomes as files;
the analysis subcommands of the command line print the document of a
one-experiment config instead.  ``exit_code`` is the one exit-code policy
for both.

Exit codes: 0 success, 1 config error (raised before this module runs),
2 numerical instability (a required estimate was unstable, or an experiment
failed at run time), 3 assertion failure (an inequality the framework
guarantees was violated beyond slack).

Outputs are deterministic: no timestamps, fixed reduction orders, floats
printed with 17 significant digits, JSON keys sorted.  Files are written
atomically (temp file + rename), one CSV per table plus one JSON summary.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import asdict, astuple, dataclass, fields
from typing import Iterable, Optional, Sequence

from .config import Experiment, ExperimentConfig
from .mollify import (
    BoundCheckRow,
    CONVERGENCE_GRID,
    DEFAULT_ENLARGEMENT,
    DEFAULT_N_LIST,
    DENSITY_N_LIST,
    Mollifier,
    REGULAR_BOUND_K_LIST,
    build_mollifier,
    class_A_membership,
    convergence_experiment,
    mollify,
    regular_bound_experiment,
)
from .expr import ExpressionError
from .nets import NetError, seminorm_tables, sharp_seminorm
from .scale import ScaleError, jsonable
from .regularity import (
    LandauEntry,
    RegularityError,
    build_report,
    classify_sublinear,
    landau_check,
    psequence,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNSTABLE = 2
EXIT_VIOLATION = 3


def _fmt(value) -> str:
    """One CSV cell; floats at 17 significant digits, bools lowercase."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if value == math.inf:
            return "inf"
        if value == -math.inf:
            return "-inf"
        return format(value, ".17g")
    return str(value)


@contextmanager
def _replacing(path: str):
    """A text file written as path + ".tmp" that replaces path when the with
    block ends; on any exception the temp file is deleted, path keeps its
    bytes, and the exception propagates."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _replacing(path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: str, document: dict) -> None:
    with _replacing(path) as fh:
        json.dump(jsonable(document), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


@dataclass(frozen=True)
class Outcome:
    """What one experiment produced.

    ``document`` is what the matching subcommand prints; the runner writes it
    as the experiment's file when ``table`` (a CSV header and its rows) is
    None.  ``summary`` is the experiment's entry in the run summary, without
    its kind.
    """

    document: dict
    summary: dict
    table: Optional[tuple[Sequence[str], list]]
    unstable: bool = False  # a required fit was too unstable to read, or the run failed
    violation: bool = False  # an inequality the framework guarantees failed


def exit_code(outcomes: Iterable[Outcome]) -> int:
    outcomes = list(outcomes)
    if any(o.violation for o in outcomes):
        return EXIT_VIOLATION
    return EXIT_UNSTABLE if any(o.unstable for o in outcomes) else EXIT_OK


def _mollifier(cfg: ExperimentConfig, params: dict) -> Optional[Mollifier]:
    Q = params.get("quadrature_order")
    return build_mollifier(cfg.dimension, Q) if Q else None


def _valuation(cfg: ExperimentConfig, params: dict) -> Outcome:
    k = params.get("k", 0)
    rows, results = [], []
    for ci, K in enumerate(cfg.compacts):
        s = sharp_seminorm(cfg.net, k, K, cfg.grid, cfg.sampling)
        rows += [(ci, e.eps, e.ln_value, e.undersampled, e.nonfinite) for e in s.table.entries]
        est = s.estimate
        results.append(
            {
                "compact": K.describe(),
                "v_hat": est.value,
                "method": est.method,
                "stable": est.stable,
            }
        )
    doc = {"k": k, "results": results}
    header = ("compact", "eps", "ln_p", "undersampled", "nonfinite")
    return Outcome(doc, doc, (header, rows), unstable=not all(r["stable"] for r in results))


def _seminorms(cfg: ExperimentConfig, params: dict) -> Outcome:
    k_list = params.get("k_list", list(range(cfg.k_max + 1)))
    tables = [seminorm_tables(cfg.net, k_list, K, cfg.grid, cfg.sampling) for K in cfg.compacts]
    rows = [
        (k, ci, e.eps, e.ln_value, e.undersampled, e.nonfinite)
        for i, k in enumerate(k_list)
        for ci, per_compact in enumerate(tables)
        for e in per_compact[i].entries
    ]
    doc = {"k_list": list(k_list)}
    return Outcome(doc, doc, (("k", "compact", "eps", "ln_p", "undersampled", "nonfinite"), rows))


def _classify(cfg: ExperimentConfig, params: dict) -> Outcome:
    # the parameter names are build_report's: a_values, bases, tol
    report = build_report(cfg.net, cfg.compacts, cfg.grid, cfg.sampling, cfg.k_max, **params)
    doc = report.to_json_dict()
    return Outcome(doc, {"report": doc}, None, unstable=not all(report.stable))


def _landau(cfg: ExperimentConfig, params: dict) -> Outcome:
    rep = landau_check(psequence(cfg.net, cfg.compacts[0], cfg.grid, cfg.sampling, cfg.k_max))
    header = tuple(f.name for f in fields(LandauEntry))
    rows = [astuple(e) for e in rep.entries]
    doc = {"all_ok": rep.all_ok, "entries": [asdict(e) for e in rep.entries]}
    skipped = any(e.verdict == "skipped" for e in rep.entries)
    return Outcome(doc, doc, (header, rows), unstable=skipped, violation=not rep.all_ok)


def _mollify_converge(cfg: ExperimentConfig, params: dict) -> Outcome:
    grid = cfg.grid if cfg.grid_given else CONVERGENCE_GRID
    record = convergence_experiment(
        cfg.net,
        cfg.compacts[0],
        params.get("k", 0),
        params.get("n_list", DEFAULT_N_LIST),
        grid,
        cfg.sampling,
        params.get("r", DEFAULT_ENLARGEMENT),
        _mollifier(cfg, params),
    )
    doc = record.to_json_dict()
    # the summary's top-level eps_grid is the config's; name the grid used
    # when it is not that one
    summary = {"record": doc} if cfg.grid_given else {"record": doc, "eps_grid": asdict(grid)}
    table = (("n", "v_hat", "reference", "margin"), record.to_csv_rows())
    unstable = any(not e.stable for e in record.entries)
    return Outcome(doc, summary, table, unstable=unstable, violation=not record.all_ok)


def _class_a(cfg: ExperimentConfig, params: dict) -> Outcome:
    rep = class_A_membership(cfg.net, params["N"], cfg.compacts, cfg.k_max, cfg.grid, cfg.sampling)
    header = ("compact", "k", "v_hat", "bound", "ok", "stable")
    rows = [(r.K, r.k, r.v_hat, r.bound, r.ok, r.stable) for r in rep.rows]
    # the document describes each compact, the CSV gives its index
    index = {id(K): ci for ci, K in enumerate(cfg.compacts)}
    doc = {
        "N": rep.N,
        "verdict": rep.verdict,
        "rows": [dict(zip(header, (K.describe(), *rest))) for K, *rest in rows],
    }
    table = (header, [(index[id(K)], *rest) for K, *rest in rows])
    unstable = rep.verdict == "inconclusive"
    return Outcome(doc, {"N": rep.N, "verdict": rep.verdict}, table, unstable=unstable)


def _regular_bound(cfg: ExperimentConfig, params: dict) -> Outcome:
    rows, results = [], []
    for n in params.get("n_list", DENSITY_N_LIST):
        for k in params.get("k_list", REGULAR_BOUND_K_LIST):
            for ci, K in enumerate(cfg.compacts):
                rep = regular_bound_experiment(cfg.net, K, k, n, cfg.grid, cfg.sampling)
                rows += [(n, k, ci, *astuple(r)) for r in rep.rows]
                results.append({"n": n, "k": k, "compact": K.describe(), "verdict": rep.verdict})
    doc = {"results": results}
    header = ("n", "k", "compact", *(f.name for f in fields(BoundCheckRow)))
    violation = any(r["verdict"] == "no" for r in results)
    return Outcome(doc, doc, (header, rows), violation=violation)


def _sublinear_density(cfg: ExperimentConfig, params: dict) -> Outcome:
    m = _mollifier(cfg, params)
    rows, results = [], []
    for n in params.get("n_list", DENSITY_N_LIST):
        rep = classify_sublinear(
            mollify(cfg.net, n, m), cfg.compacts, cfg.grid, cfg.sampling, cfg.k_max
        )
        rows += [
            (n, ci, r.s_full, r.s_half, r.a_witness, r.stable)
            for ci, r in enumerate(rep.per_compact)
        ]
        results.append({"n": n, **rep.to_json_dict()})
    doc = {"results": results}
    header = ("n", "compact", "s_full", "s_half", "witness_rate", "stable")
    unstable = any(r["verdict"] == "inconclusive" for r in results)
    return Outcome(doc, doc, (header, rows), unstable=unstable)


EXPERIMENTS = {
    "valuation": _valuation,
    "seminorms": _seminorms,
    "classify": _classify,
    "landau": _landau,
    "mollify-converge": _mollify_converge,
    "class-a": _class_a,
    "regular-bound": _regular_bound,
    "sublinear-density": _sublinear_density,
}


def run_experiment(cfg: ExperimentConfig, exp: Experiment) -> Outcome:
    """``EXPERIMENTS[exp.kind]`` on ``cfg``; a run-time failure of the
    package's own checks becomes an outcome whose document is the error."""
    try:
        return EXPERIMENTS[exp.kind](cfg, exp.params)
    except (ExpressionError, NetError, RegularityError, ScaleError) as e:
        doc = {"error": f"{type(e).__name__}: {e}"}
        return Outcome(doc, doc, None, unstable=True)


@dataclass(frozen=True)
class RunResult:
    exit_code: int
    summary: dict
    files: tuple[str, ...]


def run_config(cfg: ExperimentConfig) -> RunResult:
    prefix = cfg.output_prefix
    parent = os.path.dirname(prefix)
    if parent:
        os.makedirs(parent, exist_ok=True)
    files: list[str] = []
    outcomes: list[Outcome] = []
    for idx, exp in enumerate(cfg.experiments):
        out = run_experiment(cfg, exp)
        tag = f"{prefix}-{idx:02d}-{exp.kind}"
        if out.table is None:
            files.append(tag + ".json")
            write_json(files[-1], out.document)
        else:
            files.append(tag + ".csv")
            write_csv(files[-1], *out.table)
        outcomes.append(out)

    summary = {
        "net": cfg.net.describe(),
        "compacts": [K.describe() for K in cfg.compacts],
        "eps_grid": asdict(cfg.grid),
        "k_max": cfg.k_max,
        "experiments": [
            {"kind": exp.kind, **out.summary} for exp, out in zip(cfg.experiments, outcomes)
        ],
    }
    spath = prefix + "-summary.json"
    write_json(spath, summary)
    files.append(spath)
    return RunResult(exit_code(outcomes), summary, tuple(files))
