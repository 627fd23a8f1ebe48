"""The benchmark's workloads over colombeau's seminorm loop.

A workload is a list of operations.  An operation is one verdict-producing
call into the package's public functions: a report (``run_config`` with a
``classify`` experiment), a ``convergence_experiment``, a
``regular_bound_experiment`` or a ``psequence``.  The seed only permutes the order of independent operations;
the package receives the same inputs whatever the seed.

Every operation is checked after the timed pass.  It fails if it raised, if
its verdicts differ from those recorded in ``reference.json`` at the commit
that defined the benchmark, or if a fitted valuation lies further than
``VALUATION_TOL`` from its oracle.
"""
from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import colombeau
from colombeau.catalog import CATALOG, REFERENCE_COMPACTS, catalog_net, catalog_oracle
from colombeau.expr import parse

# ln-domain acceptance tolerance of criterion 3 in tests/test_acceptance.py
VALUATION_TOL = 0.1

GRID_2D = colombeau.EpsGrid(0.5, 0.5, 10)
COMPACT_2D = colombeau.CompactBox.of([(0.0, 1.0), (0.0, 1.0)])

# Counts that repeat exactly run after run; reference.json pins their values
# at the commit that defined the benchmark.
PINNED = ("nets.seminorm.calls", "nets.seminorm.distinct")


@dataclass
class Op:
    """One verdict-producing call and how to read its result."""

    id: str
    run: Callable[[], object]
    verdicts: Callable[[object], object]  # compared exactly with the reference
    fitted: Callable[[object], dict]  # fitted value per name, read against oracles
    oracles: Callable[[dict], dict]  # oracle per name, given the op's reference entry
    files: Callable[[object], dict] = lambda result: {}  # output name -> path


def _num(x):
    """A JSON value from the package's encoders back to a float."""
    if x is None:
        return math.nan
    if x == "inf":
        return math.inf
    if x == "-inf":
        return -math.inf
    return float(x)


def _k_name(K) -> str:
    return "x".join(f"[{lo:g},{hi:g}]" for box in K.boxes for lo, hi in box)


# -- catalog_report ----------------------------------------------------------


def _catalog_ops(rng, mollifier, outdir):
    names = list(CATALOG)
    rng.shuffle(names)
    ops = []
    for name in names:
        cfg = colombeau.load_config({
            "dimension": 1,
            "net": {"catalog": name},
            "compacts": [K.describe() for K in REFERENCE_COMPACTS],
            "k_max": 6,
            "experiments": [{"kind": "classify"}],
            "output_prefix": os.path.join(outdir, name),
        })
        ops.append(Op(
            id=f"catalog_report/{name}",
            run=lambda cfg=cfg: colombeau.run_config(cfg),
            verdicts=_report_verdicts,
            fitted=lambda res: {
                f"v{k}": -_num(v)
                for k, v in enumerate(res.summary["experiments"][0]["report"]["ln_p"])
            },
            oracles=lambda ref, name=name: {
                f"v{k}": float(catalog_oracle(name, k)) for k in range(7)
            },
            files=lambda res, name=name: {
                os.path.basename(f)[len(name) + 1:]: f for f in res.files
            },
        ))
    return ops


def _report_verdicts(res):
    rep = res.summary["experiments"][0]["report"]
    return {
        "exit_code": res.exit_code,
        "stable": rep["stable"],
        "ginfty": rep["ginfty"]["verdict"],
        "gla": [g["verdict"] for g in rep["gla"]],
        "sublinear": rep["sublinear"]["verdict"],
        "landau": [e["verdict"] for e in rep["landau"]],
        "growth_char": [[g["bound_verdict"], g["ratio_verdict"]] for g in rep["growth_char"]],
    }


# -- mollify_bounds ----------------------------------------------------------


def _bounds_ops(rng, mollifier, outdir):
    u = catalog_net("compact_osc")
    cases = [("converge", K, k, None) for K in REFERENCE_COMPACTS for k in (0, 1)]
    cases += [("bound", K, k, n) for K in REFERENCE_COMPACTS for k in range(4) for n in (1, 2, 3)]
    rng.shuffle(cases)
    ops = []
    for kind, K, k, n in cases:
        if kind == "converge":
            ops.append(Op(
                id=f"mollify_bounds/converge/{_k_name(K)}/k{k}",
                run=lambda K=K, k=k: colombeau.convergence_experiment(
                    u, K, k, (1, 2, 3, 4), mollifier=mollifier),
                verdicts=lambda rec: {
                    "all_ok": rec.all_ok,
                    "ok": [e.ok for e in rec.entries],
                    "stable": [e.stable for e in rec.entries],
                },
                fitted=lambda rec: {"reference": rec.reference},
                oracles=lambda ref, k=k: {
                    "reference": float(catalog_oracle("compact_osc", k + 1))},
            ))
        else:
            ops.append(Op(
                id=f"mollify_bounds/bound/{_k_name(K)}/k{k}/n{n}",
                run=lambda K=K, k=k, n=n: colombeau.regular_bound_experiment(
                    u, K, k, n, mollifier=mollifier),
                verdicts=lambda rep: {"verdict": rep.verdict, "ok": [r.ok for r in rep.rows]},
                fitted=lambda rep: {},
                oracles=lambda ref: {},
            ))
    return ops


# -- grid_2d -----------------------------------------------------------------


def _grid_2d_ops(rng, mollifier, outdir):
    # one operation: the seed has nothing to permute here
    net = colombeau.ExpressionNet(2, parse("sin(x1/eps)*cos(x2)", 2), oscillation_hint=1)
    return [Op(
        id="grid_2d/sin-cos",
        run=lambda: colombeau.psequence(net, COMPACT_2D, GRID_2D, k_max=2),
        verdicts=lambda seq: {"stable": [seq.stable(k) for k in range(seq.k_max + 1)]},
        fitted=lambda seq: {f"v{k}": -seq.ln(k) for k in range(seq.k_max + 1)},
        oracles=lambda ref: {f"v{k}": float(-k) for k in range(3)},
    )]


@dataclass(frozen=True)
class Workload:
    """How to build a workload's operations, and the layers it must reach.

    A traced run in which a required layer records no call fails, because
    then a wrapper missed the name its caller looks up.
    """

    build: Callable
    required_layers: tuple[str, ...]


WORKLOADS = {
    "catalog_report": Workload(_catalog_ops, (
        "expr.eval_batch", "expr.differentiate", "expr.special.cutoff_deriv_values",
        "expr.special.bump_deriv_values", "nets.seminorm", "nets.derivative_batch.ExpressionNet",
        "nets.derivative_batch.FiniteSumNet", "scale.estimate_valuation",
        "regularity.psequence", "regularity.build_report", "runner.write_json",
        "config.load_config", "mollify.build_mollifier",
    )),
    "mollify_bounds": Workload(_bounds_ops, (
        "expr.eval_batch", "expr.differentiate", "expr.special.cutoff_deriv_values",
        "nets.seminorm", "nets.derivative_batch.ExpressionNet",
        "nets.derivative_batch.DifferenceNet", "mollify.MollifiedNet.derivative_batch",
        "mollify.PsiRouteNet.derivative_batch", "scale.estimate_valuation",
        "mollify.build_mollifier",
    )),
    "grid_2d": Workload(_grid_2d_ops, (
        "expr.eval_batch", "expr.differentiate", "nets.seminorm",
        "nets.derivative_batch.ExpressionNet", "scale.estimate_valuation",
        "regularity.psequence", "mollify.build_mollifier",
    )),
}


def build_ops(workload: str, seed: int, mollifier, outdir: str) -> list[Op]:
    """Fresh inputs for one pass: configs, nets and operations in seed order."""
    return WORKLOADS[workload].build(random.Random(seed), mollifier, outdir)


def _oracle_miss(value: float, oracle: float) -> bool:
    if oracle == math.inf or value == math.inf:
        return value != oracle
    return not abs(value - oracle) <= VALUATION_TOL


def check(op: Op, result, reference: dict) -> tuple[list[str], int]:
    """Failure reasons for one operation, and its count of changed output files.

    Output bytes are compared by sha256 against the reference; a change is
    counted, not failed, so a refactor that moves last digits stays visible
    without being scored as a wrong verdict.
    """
    ref = reference.get(op.id)
    if ref is None:
        return [f"{op.id}: no reference entry"], 0
    problems = []
    verdicts = op.verdicts(result)
    if verdicts != ref["verdicts"]:
        problems.append(f"{op.id}: verdicts {verdicts} != reference {ref['verdicts']}")
    oracles = op.oracles(ref)
    for name, value in op.fitted(result).items():
        if _oracle_miss(value, oracles[name]):
            problems.append(f"{op.id}: {name} = {value} vs oracle {oracles[name]}")
    changed = sum(
        digest(path) != ref["digests"].get(name)
        for name, path in op.files(result).items()
    )
    return problems, changed


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
