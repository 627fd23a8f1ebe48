#!/usr/bin/env python3
"""Benchmark of colombeau's seminorm loop: one workload per invocation.

    python3 perfbench/run.py --workload catalog_report --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every measurement runs in a child process with
``COLOMBEAU_THREADS=1`` and single-threaded BLAS, and this process never
imports the package:

* ``--trace 0`` runs untraced passes for ``--seconds`` in one process,
  times set-up in ``SETUP_PROBES`` fresh interpreters, half before the
  passes and half after, and prints the end-to-end metrics of
  ``BENCHMARK.json``.  ``--seconds`` defaults to ``run_seconds`` there, the
  budget its bounds were measured with.
* ``--trace 1`` runs one untraced pass, then one pass under the outside-in
  tracer in a separate process, and prints the per-layer metrics.  A pinned
  count that differs from ``reference.json`` makes the run incorrect.

The workloads are the ``workloads`` of ``BENCHMARK.json``.

Every line but the last is for people: provenance, each metric with its
unit, and the reason for any failed operation.  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["COLOMBEAU_THREADS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(*args: str) -> dict:
    """Run worker.py to completion; its last stdout line is a JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} did not finish in {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _setup_seconds(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "setup", workload, str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("set-up probe did not exit")
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed ({proc.returncode}):\n{err}")
    return elapsed


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            ordered = sorted(samples)
            return f"p{p:g} = {ordered[math.ceil(p / 100 * n) - 1]:.4f} s"
    return f"none (needs >= 20 samples, have {n})"


def _commit() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def end_to_end(workload: str, seed: int, seconds: float):
    # The machine's speed drifts over seconds to minutes, and set-up probes
    # taken back to back all see one speed; probes at both ends of the run
    # give the median two moments to average over.
    setups = [_setup_seconds(workload, seed) for _ in range(SETUP_PROBES // 2)]
    res = _worker("run", workload, str(seed), repr(seconds))
    setups += [_setup_seconds(workload, seed) for _ in range(SETUP_PROBES - len(setups))]
    attempted, failed = res["attempted"], res["failed"]
    values = {
        "wall_s": statistics.median(res["passes"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "ops_ok_pct": 100.0 * (attempted - failed) / attempted,
    }
    notes = {
        "wall_s": f"median of {len(res['passes'])} passes "
                  f"{[round(p, 4) for p in res['passes']]}; "
                  f"highest percentile with >= 10 samples beyond it: {_tail(res['passes'])}",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters, half after the passes "
                   f"{[round(s, 4) for s in setups]}",
        "peak_rss_mb": "max resident set of the process that ran the passes",
        "ops_ok_pct": f"{attempted - failed} of {attempted} operations correct",
    }
    info = {"python": res["python"], "numpy": res["numpy"],
            "output_digest_changes": res["digest_changes"]}
    return values, notes, attempted, failed, res["failures"], info


def per_layer(workload: str, seed: int, names):
    untraced = _worker("run", workload, str(seed), "0")  # exactly one pass
    traced = _worker("trace", workload, str(seed))
    if traced["missing_layers"]:
        raise BenchError(f"traced run reached no call of {traced['missing_layers']}: "
                         "a wrapper missed the name its caller looks up")
    counts, self_s, wall = traced["counts"], traced["self_s"], traced["wall_s"]
    pins_off = {k: (v, counts[k]) for k, v in traced["pins"].items() if counts[k] != v}
    # a pin that moves means the tracer double-counts or the work changed;
    # a change that removes repeated work on purpose re-records reference.json
    pin_failures = [f"pin {k}: recorded {v}, now {now}" for k, (v, now) in pins_off.items()]
    special = {
        "nets.seminorm.repeat_ratio":
            counts["nets.seminorm.distinct"] / counts["nets.seminorm.calls"],
        "runner.output_digest_mismatch": traced["digest_changes"],
        "bench.pin_mismatch": len(pins_off),
        "bench.traced_wall_s": wall,
        "bench.trace_overhead_s": wall - untraced["passes"][0],
    }
    values = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field == "self_s" and layer in self_s:
            values[name] = self_s[layer]
        elif field == "self_pct" and layer in self_s:
            values[name] = 100.0 * self_s[layer] / wall
        elif name in counts:
            values[name] = counts[name]
        else:
            raise BenchError(f"the tracer does not measure {name!r}")
    notes = {name: "" for name in names}
    if pins_off:
        notes["bench.pin_mismatch"] = f"pinned (recorded, now): {pins_off}"
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    info = {"python": untraced["python"], "numpy": untraced["numpy"],
            "untraced_wall_s": untraced["passes"][0]}
    failures = untraced["failures"] + traced["failures"] + pin_failures
    return values, notes, attempted, failed, failures, info


def main(argv=None) -> int:
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "colombeau", "__init__.py")):
            raise BenchError(f"no colombeau sources under {os.path.join(ROOT, 'src')}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="permutes the order of independent operations")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    names = [m["name"] for m in specs]
    try:
        if args.trace:
            values, notes, attempted, failed, failures, info = per_layer(
                args.workload, args.seed, names)
        else:
            values, notes, attempted, failed, failures, info = end_to_end(
                args.workload, args.seed, args.seconds)
        if set(values) != set(names):
            raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "commit": _commit(), "nproc": _nproc(),
                  "COLOMBEAU_THREADS": _child_env()["COLOMBEAU_THREADS"], **info}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for spec in specs:
        name = spec["name"]
        print(f"{name:52s} {values[name]:14.6g} {spec['unit']:6s} {notes[name]}")
    for reason in failures:
        print(f"FAILED {reason}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
