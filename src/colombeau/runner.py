"""Config-driven experiment execution with CSV/JSON outputs.

Exit codes: 0 success, 1 config error (raised before this module runs),
2 numerical instability (a required estimate was unstable), 3 assertion
failure (an inequality the framework guarantees was violated beyond slack).

Outputs are deterministic: no timestamps, fixed reduction orders, floats
printed with 17 significant digits, JSON keys sorted.  Files are written
atomically (temp file + rename), one CSV per table plus one JSON summary.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import ExperimentConfig
from .mollify import (
    build_mollifier,
    class_A_membership,
    convergence_experiment,
    mollify,
)
from .nets import NetError, seminorm_table
from .scale import estimate_valuation, jsonable
from .regularity import (
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


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


def write_json(path: str, document: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(jsonable(document), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    os.replace(tmp, path)


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
    summaries: list[dict] = []
    unstable = False
    violation = False

    for idx, exp in enumerate(cfg.experiments):
        tag = f"{prefix}-{idx:02d}-{exp.kind}"
        if exp.kind == "valuation":
            k = exp.params.get("k", 0)
            rows, per_compact = [], []
            for ci, K in enumerate(cfg.compacts):
                table = seminorm_table(cfg.net, k, K, cfg.grid, cfg.sampling)
                est = estimate_valuation(table.samples(), log_values=True)
                rows += [
                    (ci, e.eps, e.ln_value, e.undersampled, e.nonfinite)
                    for e in table.entries
                ]
                per_compact.append(
                    {
                        "compact": K.describe(),
                        "v_hat": est.value,
                        "method": est.method,
                        "stable": est.stable,
                    }
                )
                unstable = unstable or not est.stable
            path = tag + ".csv"
            write_csv(path, ("compact", "eps", "ln_p", "undersampled", "nonfinite"), rows)
            files.append(path)
            summaries.append({"kind": exp.kind, "k": k, "results": per_compact})
        elif exp.kind == "seminorms":
            k_list = exp.params.get("k_list", list(range(cfg.k_max + 1)))
            rows = []
            for k in k_list:
                for ci, K in enumerate(cfg.compacts):
                    table = seminorm_table(cfg.net, k, K, cfg.grid, cfg.sampling)
                    rows += [
                        (k, ci, e.eps, e.ln_value, e.undersampled, e.nonfinite)
                        for e in table.entries
                    ]
            path = tag + ".csv"
            write_csv(path, ("k", "compact", "eps", "ln_p", "undersampled", "nonfinite"), rows)
            files.append(path)
            summaries.append({"kind": exp.kind, "k_list": list(k_list)})
        elif exp.kind == "classify":
            report = build_report(
                cfg.net,
                cfg.compacts,
                cfg.grid,
                cfg.sampling,
                cfg.k_max,
                tuple(exp.params.get("a_values", (0.5, 1.0, 1.5, 2.0))),
                tuple(exp.params.get("bases", (1.0, math.e, math.e**2))),
                exp.params.get("tol", 0.1),
            )
            doc = report.to_json_dict()
            path = tag + ".json"
            write_json(path, doc)
            files.append(path)
            unstable = unstable or not all(report.stable)
            summaries.append({"kind": exp.kind, "report": doc})
        elif exp.kind == "landau":
            seq = psequence(cfg.net, cfg.compacts[0], cfg.grid, cfg.sampling, cfg.k_max)
            rep = landau_check(seq)
            rows = [(e.k, e.verdict, e.margin) for e in rep.entries]
            path = tag + ".csv"
            write_csv(path, ("k", "verdict", "margin"), rows)
            files.append(path)
            violation = violation or not rep.all_ok
            unstable = unstable or any(e.verdict == "skipped" for e in rep.entries)
            summaries.append(
                {
                    "kind": exp.kind,
                    "all_ok": rep.all_ok,
                    "entries": [
                        {"k": e.k, "verdict": e.verdict, "margin": e.margin}
                        for e in rep.entries
                    ],
                }
            )
        elif exp.kind == "mollify-converge":
            Q = exp.params.get("quadrature_order")
            m = build_mollifier(cfg.dimension, Q) if Q else None
            record = convergence_experiment(
                cfg.net,
                cfg.compacts[0],
                exp.params.get("k", 0),
                tuple(exp.params.get("n_list", (1, 2, 3, 4))),
                cfg.grid if cfg.grid_given else None,  # None: CONVERGENCE_GRID
                cfg.sampling,
                exp.params.get("r", 0.5),
                m,
            )
            path = tag + ".csv"
            write_csv(path, ("n", "v_hat", "reference", "margin"), record.to_csv_rows())
            files.append(path)
            violation = violation or not record.all_ok
            unstable = unstable or any(not e.stable for e in record.entries)
            summaries.append({"kind": exp.kind, "record": record.to_json_dict()})
        elif exp.kind == "class-a":
            rep = class_A_membership(
                cfg.net, exp.params["N"], cfg.compacts, cfg.k_max, cfg.grid, cfg.sampling
            )
            rows = [
                (r.K.describe(), r.k, r.v_hat, r.bound, r.ok, r.stable) for r in rep.rows
            ]
            path = tag + ".csv"
            write_csv(path, ("compact", "k", "v_hat", "bound", "ok", "stable"), rows)
            files.append(path)
            unstable = unstable or rep.verdict == "inconclusive"
            summaries.append({"kind": exp.kind, "N": rep.N, "verdict": rep.verdict})
        elif exp.kind == "sublinear-density":
            Q = exp.params.get("quadrature_order")
            m = build_mollifier(cfg.dimension, Q) if Q else None
            n_list = tuple(exp.params.get("n_list", (1, 2, 3)))
            rows, results = [], []
            for n in n_list:
                rep = classify_sublinear(
                    mollify(cfg.net, n, m), cfg.compacts, cfg.grid, cfg.sampling, cfg.k_max
                )
                for ci, r in enumerate(rep.per_compact):
                    rows.append((n, ci, r.s_full, r.s_half, r.a_witness, r.stable))
                unstable = unstable or rep.verdict == "inconclusive"
                results.append(
                    {
                        "n": n,
                        "verdict": rep.verdict,
                        "slopes": [r.s_full for r in rep.per_compact],
                        "witness_rates": [r.a_witness for r in rep.per_compact],
                    }
                )
            path = tag + ".csv"
            write_csv(
                path, ("n", "compact", "s_full", "s_half", "witness_rate", "stable"), rows
            )
            files.append(path)
            summaries.append({"kind": exp.kind, "results": results})
        else:  # pragma: no cover - config validation rejects unknown kinds
            raise NetError(f"unhandled experiment kind {exp.kind}")

    summary = {
        "net": cfg.net.describe(),
        "compacts": [K.describe() for K in cfg.compacts],
        "eps_grid": {"eps0": cfg.grid.eps0, "ratio": cfg.grid.ratio, "count": cfg.grid.count},
        "k_max": cfg.k_max,
        "experiments": summaries,
    }
    spath = prefix + "-summary.json"
    write_json(spath, summary)
    files.append(spath)
    code = EXIT_VIOLATION if violation else (EXIT_UNSTABLE if unstable else EXIT_OK)
    return RunResult(code, summary, tuple(files))
