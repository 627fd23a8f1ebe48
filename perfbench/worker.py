"""One benchmark process; ``run.py`` starts it and reads its last stdout line.

    worker.py setup  WORKLOAD SEED        set up, print "ready", exit
    worker.py run    WORKLOAD SEED SECONDS untraced passes for SECONDS
    worker.py trace  WORKLOAD SEED        one traced pass, per-layer numbers
    worker.py record                      rewrite reference.json at this commit

Set-up is ``import colombeau``, the default mollifier and the workload's
configs and nets.  Each timed pass builds its configs and nets again, so the
symbolic derivative trees, which a command-line user pays for on every run,
fall inside the pass.  Correctness checks run after the pass and are not
timed.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


def _setup(workload: str, seed: int, outdir: str):
    import colombeau
    from workloads import build_ops

    mollifier = colombeau.build_mollifier(1)
    build_ops(workload, seed, mollifier, outdir)
    return mollifier


def _one_pass(workload, seed, mollifier, outdir):
    """Build fresh inputs and run every operation; returns (seconds, outcomes)."""
    from workloads import build_ops

    t0 = time.perf_counter()
    ops = build_ops(workload, seed, mollifier, outdir)
    outcomes = []
    for op in ops:
        try:
            outcomes.append((op, op.run(), None))
        except Exception as exc:  # an operation that raises is a failed operation
            outcomes.append((op, None, f"{op.id}: raised {type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, outcomes


def _check(outcomes, reference):
    """(failed operations, failure reasons, changed output files)."""
    from workloads import check

    failed, reasons, changed = 0, [], 0
    for op, result, error in outcomes:
        problems, n = ([error], 0) if error is not None else check(op, result, reference)
        failed += bool(problems)
        reasons += problems
        changed += n
    return failed, reasons, changed


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, outdir):
    import numpy

    mollifier = _setup(workload, seed, outdir)
    reference = _load_reference()["ops"]
    passes, attempted, failed, reasons, changed = [], 0, 0, [], 0
    start = time.perf_counter()
    while True:
        wall, outcomes = _one_pass(workload, seed, mollifier, outdir)
        passes.append(wall)
        attempted += len(outcomes)
        f, r, c = _check(outcomes, reference)
        failed, reasons, changed = failed + f, reasons + r, changed + c
        # stop before a pass of median length would overrun the budget
        if time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failures": reasons,
        "digest_changes": changed,
        "peak_rss_mb": _peak_rss_mb(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def _traced_pass(workload, seed, outdir):
    """One traced pass; set-up is traced too, for the mollifier build."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        mollifier = _setup(workload, seed, outdir)
        setup_s = tracer.self_s["mollify.build_mollifier"]
        setup_calls = tracer.counts["mollify.build_mollifier.calls"]
        tracer.reset()
        wall, outcomes = _one_pass(workload, seed, mollifier, outdir)
    finally:
        tracer.uninstall()
    counts, self_s = dict(tracer.counts), dict(tracer.self_s)
    # the mollifier is built in set-up; every other layer is read from the pass
    self_s["mollify.build_mollifier"] = setup_s
    counts["mollify.build_mollifier.calls"] = setup_calls
    return wall, outcomes, counts, self_s


def trace(workload, seed, outdir):
    from workloads import WORKLOADS

    wall, outcomes, counts, self_s = _traced_pass(workload, seed, outdir)
    reference = _load_reference()
    failed, reasons, changed = _check(outcomes, reference["ops"])
    return {
        "wall_s": wall,
        "attempted": len(outcomes),
        "failed": failed,
        "failures": reasons,
        "digest_changes": changed,
        "counts": counts,
        "self_s": self_s,
        "missing_layers": [layer for layer in WORKLOADS[workload].required_layers
                           if counts[layer + ".calls"] == 0],
        "pins": reference["pins"][workload],
    }


def record(outdir):
    """Rewrite reference.json: verdicts, fitted values, output digests, count pins."""
    from workloads import PINNED, WORKLOADS, digest

    ops_ref, pins = {}, {}
    for workload in WORKLOADS:
        _, outcomes, counts, _ = _traced_pass(workload, 0, outdir)
        for op, result, error in outcomes:
            if error is not None:
                raise SystemExit(error)
            ops_ref[op.id] = {
                "verdicts": op.verdicts(result),
                "fitted": op.fitted(result),
                "digests": {name: digest(path) for name, path in op.files(result).items()},
            }
        pins[workload] = {name: counts[name] for name in PINNED}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops_ref, "pins": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv):
    mode = argv[1]
    outdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", f"w{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        if mode == "setup":
            _setup(argv[2], int(argv[3]), outdir)
            print("ready", flush=True)
            return
        if mode == "run":
            result = run(argv[2], int(argv[3]), float(argv[4]), outdir)
        elif mode == "trace":
            result = trace(argv[2], int(argv[3]), outdir)
        elif mode == "record":
            record(outdir)
            return
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv)
