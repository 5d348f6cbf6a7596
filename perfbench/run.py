#!/usr/bin/env python3
"""Benchmark runner for knncompress.

    python3 perfbench/run.py --workload cov-scc --seed 1 --seconds 20 --trace 0

Run from the repository root.  Runs one named workload of
``perfbench/workloads.py`` in this one process, against the library in
``src/``, checks its outputs and prints, on its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``; each metric is
``{"value", "unit"}``.  The line before it is a JSON record of the run:
machine and library versions, git sha, every round's values.

Set-up runs before the clock starts: SETUP_REPS repetitions of a fresh
import of the knncompress package, dataset generation and split, and
``setup_s`` is their median at nominal speed.  The fresh import re-runs
the package's own modules with numpy and scipy already loaded; the
process's first, cold import, mostly numpy and scipy loading from disk,
is timed once as the per-layer metric import_s.  The timed part then runs
in rounds on the same inputs until another round would end after
``--seconds``; at least one round runs.

Every end-to-end time is wall time scaled to the machine's nominal speed
by ``perfbench/speed.py``, which times a fixed kernel during each phase;
the raw wall time is in the record as raw_total_s.

--trace 0  prints the end-to-end metrics of BENCHMARK.json, the medians
           over rounds run with no tracing.
--trace 1  alternates untraced and traced rounds (at least one of each) and
           prints the per-layer metrics of BENCHMARK.json: span times and
           counters from the traced rounds, the quality values
           (test_error, train_loss, full_query_per_s) from the untraced
           ones, and the tracing overhead: raw wall time of the traced
           rounds (trace.total_s) against the untraced ones
           (trace.untraced_total_s).  Spans go to
           .perfbench-out/spans-<workload>-seed<seed>.json.

Exit status: 0 once the result line is printed (its "correct" says whether
every check passed); 2, with no result, when src/knncompress is missing or
the workload is unknown.
"""
from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 15
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Run BLAS on one thread; call before numpy loads.  Returns nproc.

    With a BLAS thread per core (2 on the reference machine), another
    process busy on one core slowed cov-scc's compress_s 2.5 times, as
    BLAS threads waited for the busy core, and the speed probe, which is
    single-threaded, did not see it; with one thread compress_s did not
    move.  Alone on the machine one and two threads ran equally fast.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_sha(root: str) -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {"nproc": nproc, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "git_sha": git_sha(ROOT)}


def fresh_import() -> None:
    """Import a second copy of the knncompress package, then put the
    first one back in sys.modules, so every caller keeps its modules."""
    def ours():
        return {k: v for k, v in sys.modules.items()
                if k == "knncompress" or k.startswith("knncompress.")}
    saved = ours()
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("knncompress")
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_round(wl, inputs, tracer=None):
    """Run and score one round; a round that raises fails all its ops.

    A traced round also traces one set-up, for the datasets layer, and
    runs with the speed probe off so that span times stay raw.
    """
    from speed import SpeedProbe
    from workloads import Round
    try:
        if tracer is None:
            raw = wl.run(inputs, SpeedProbe)
        else:
            with tracer:
                wl.setup(inputs.seed, inputs.workdir)
                raw = wl.run(inputs, functools.partial(SpeedProbe, False))
        return wl.score(inputs, raw)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        n = wl.ops(inputs)
        return Round({}, n, n)


def median_of(rounds, name):
    values = [r.metrics[name] for r in rounds if name in r.metrics]
    return statistics.median(values) if values else None


def measure(wl, seed: int, seconds: float, trace: bool, import_s: float,
            workdir: str):
    """Set up, run rounds for `seconds`; returns (metrics, record, rounds,
    tracers).  metrics holds every value this workload gives."""
    from speed import SpeedProbe
    from tracer import Tracer

    def set_up():
        fresh_import()
        return wl.setup(seed, workdir)

    setup_times = []
    with SpeedProbe() as setup_probe:
        for _ in range(SETUP_REPS):
            # a collection due from earlier allocations is not set-up work
            gc.collect()
            inputs, took = setup_probe.timed(set_up)
            setup_times.append(took)

    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        use_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        if use_trace:
            tracers.append(Tracer())
            traced.append(one_round(wl, inputs, tracers[-1]))
        else:
            plain.append(one_round(wl, inputs))
        took = time.perf_counter() - t0
        enough = plain and (traced or not trace)
        if enough and time.perf_counter() - start + took > seconds:
            break

    metrics = {"setup_s": statistics.median(setup_times)}
    for name in {k for r in plain for k in r.metrics}:
        metrics[name] = median_of(plain, name)
    if trace:
        layer = [t.metrics() for t in tracers]
        for name in layer[0]:
            metrics[name] = statistics.median(m[name] for m in layer)
        metrics["import_s"] = import_s
        metrics["trace.total_s"] = median_of(traced, "raw_total_s")
        metrics["trace.untraced_total_s"] = metrics.get("raw_total_s")
        if metrics["trace.total_s"] and metrics["trace.untraced_total_s"]:
            metrics["trace.overhead"] = (metrics["trace.total_s"]
                                         / metrics["trace.untraced_total_s"]
                                         - 1.0)
    record = {"setup_nominal_s": setup_times, "import_s": import_s,
              "setup_speed_factor": setup_probe.factor,
              "rounds": [r.metrics for r in plain],
              "traced_rounds": [r.metrics for r in traced]}
    return metrics, record, plain + traced, tracers


def result_line(declared, metrics, rounds, trace: bool) -> dict:
    """The last line: every declared metric, with its unit, and the checks'
    verdict.  In a traced run a layer or quality value the workload does
    not produce reads 0; in an untraced run a missing value is a failure."""
    out = {}
    for m in declared:
        value = metrics.get(m["name"])
        if value is None and trace:
            value = 0.0
        if value is not None:
            out[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(r.failed for r in rounds)
    return {"correct": failed == 0 and len(out) == len(declared),
            "attempted": sum(r.attempted for r in rounds),
            "failed": failed, "metrics": out}


def main(argv=None) -> int:
    nproc = cap_blas_threads()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knncompress", "__init__.py")):
        print(f"error: no knncompress package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import knncompress  # noqa: F401  (timed: import_s)
    import_s = time.perf_counter() - t0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    warnings.simplefilter("ignore")
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload]()
        metrics, record, rounds, tracers = measure(
            wl, args.seed, args.seconds, bool(args.trace), import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracers:
        tracers[-1].dump(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
    record.update(workload=args.workload, seed=args.seed,
                  traced=bool(args.trace), seconds=args.seconds,
                  env=environment(nproc),
                  all_metrics={k: {"value": v, "unit": units.get(k, "s")}
                               for k, v in sorted(metrics.items())})
    print(json.dumps({"record": record}))

    print(json.dumps(result_line(declared, metrics, rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
