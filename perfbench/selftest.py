#!/usr/bin/env python3
"""Fast self-test of the benchmark runner on tiny shapes.

    python3 perfbench/selftest.py

For every workload, at tiny shapes: an untraced run yields every
end-to-end metric of BENCHMARK.json and a traced run every per-layer
metric, with no failed operation.  Then outputs corrupted on purpose
(a non-SPD prototype, a prototype off the simplex, a broken distance
count, a malformed bench record, a round that raises) must count as
failed operations.  Exits 0 when every check passes.
"""
from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import tempfile
import warnings

import run

run.cap_blas_threads()
sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import CovScc, CovSelect, HistShc, HistTight  # noqa: E402

TINY = [CovScc(per_class=10, m=6, max_iter=5),
        HistShc(per_class=8, m=6, max_iter=3, rmhc_steps=5),
        CovSelect(per_class=12, rmhc_steps=5),
        # lambda=20 keeps the tiny run fast; the benchmark uses 200
        HistTight(per_class=4, n_queries=3, lam=20.0)]

failures = 0


def check(name: str, ok: bool) -> None:
    global failures
    print(f"[{'PASS' if ok else 'FAIL'}] {name}", flush=True)
    failures += not ok


def metrics_complete(wl, workdir, spec, trace: bool) -> None:
    metrics, _, rounds, _ = run.measure(wl, 0, 0.0, trace, 0.0, workdir)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result = run.result_line(declared, metrics, rounds, trace)
    values = [m["value"] for m in result["metrics"].values()]
    mode = "traced" if trace else "untraced"
    check(f"{wl.name} {mode}: every metric printed, all finite, none failed",
          result["correct"] and set(result["metrics"]) == {
              m["name"] for m in declared}
          and all(math.isfinite(v) for v in values))
    if not trace:
        check(f"{wl.name}: end-to-end values are positive",
              all(v > 0 for v in values))


def failed_after(wl, inputs, raw, corrupt) -> int:
    bad = copy.deepcopy(raw)
    corrupt(bad)
    return wl.score(inputs, bad).failed


def corruption(wl, workdir) -> None:
    inputs = wl.setup(0, workdir)
    raw = wl.run(inputs, SpeedProbe)
    n = len(inputs.test)
    check(f"{wl.name}: clean outputs pass", wl.score(inputs, raw).failed == 0)

    def miscount(bad):
        bad["rep"].distance_evals += 1

    if isinstance(wl, CovScc):
        def non_spd(bad):
            bad["state"].factors[0] = np.zeros_like(bad["state"].factors[0])
        check("cov-scc: a non-SPD prototype fails one op",
              failed_after(wl, inputs, raw, non_spd) == 1)
        check("cov-scc: a wrong distance count fails that evaluation's "
              "queries", failed_after(wl, inputs, raw, miscount) == n)
    if isinstance(wl, HistShc):
        def off_simplex(bad):
            protos = bad["state"].prototypes()
            protos[0, 0] = -1e-3
            bad["state"].prototypes = lambda: protos
        check("hist-shc: a prototype off the simplex fails one op",
              failed_after(wl, inputs, raw, off_simplex) == 1)
        check("hist-shc: a wrong distance count fails the queries",
              failed_after(wl, inputs, raw, miscount) == n)
    if isinstance(wl, CovSelect):
        def bad_record(bad):
            rec = json.loads(bad["lines"][0])
            rec["m_actual"] = 0
            bad["lines"][0] = json.dumps(rec)
        check("cov-select: a record with m_actual=0 fails its cell",
              failed_after(wl, inputs, raw, bad_record) == 1 + n)
    if isinstance(wl, HistTight):
        def nan_rate(bad):
            bad["rep"].error_rate = float("nan")
        check("hist-tight: a NaN error rate fails the queries",
              failed_after(wl, inputs, raw, nan_rate) == n)

        def off_simplex_reference(bad):
            bad["reference"].members[0][0] = -1e-3
        check("hist-tight: a reference off the simplex fails every compress "
              "call", failed_after(wl, inputs, raw, off_simplex_reference)
              == wl.compress_reps)


def raising_round(workdir) -> None:
    wl = CovScc(per_class=10, m=6, max_iter=5)
    inputs = wl.setup(0, workdir)

    def boom(_inputs, _probe):
        raise FloatingPointError("injected")
    wl.run = boom
    stderr, sys.stderr = sys.stderr, open(os.devnull, "w")
    try:
        r = run.one_round(wl, inputs)
    finally:
        sys.stderr.close()
        sys.stderr = stderr
    check("a round that raises fails all its ops",
          r.failed == r.attempted == wl.ops(inputs))


def main() -> int:
    warnings.simplefilter("ignore")
    spec = run.load_spec()
    check("workload names match BENCHMARK.json",
          sorted(workloads.WORKLOADS)
          == sorted(w["name"] for w in spec["workloads"]))
    os.makedirs(run.OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        for wl in TINY:
            metrics_complete(wl, workdir, spec, trace=False)
            metrics_complete(wl, workdir, spec, trace=True)
            corruption(wl, workdir)
        raising_round(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{failures} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
