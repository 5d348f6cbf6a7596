"""Span tracing of knncompress from outside the library.

A `Tracer` replaces public functions with spies at the names their callers
look them up by (``knncompress.scc.ncg_minimize``, not
``knncompress.optim.ncg_minimize``, because ``scc`` imported the name).
Each call becomes one span ``[name, start, end, parent]`` kept in memory;
observers read counters (iterations, convergence, chosen gamma^2) from
return values.  Leaving the ``with`` block puts every original name back.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from knncompress import (
    baselines, cli, datasets, harness, knn, neighborhood, ot, scc, shc, spd)


def _obs_ncg(tr, args, kwargs, out):
    tr.count("optim.ncg_minimize.n_iter", out.n_iter)
    tr.count("optim.ncg_minimize.converged", int(out.converged))


def _obs_gamma(tr, args, kwargs, out):
    tr.note("neighborhood.select_gamma_sq.value", out)


def _obs_gamma_shc(tr, args, kwargs, out):
    _obs_gamma(tr, args, kwargs, out)
    tr.count("shc.gamma_selections")


def _obs_batch(tr, args, kwargs, out):
    _, _, _, converged, iterations = out
    tr.count("ot.sinkhorn_batch.iterations", iterations)
    tr.count("ot.sinkhorn_batch.unconverged", int((~converged).sum()))


def _obs_sinkhorn(tr, args, kwargs, out):
    tr.count("ot.sinkhorn.iterations", out.iterations)
    tr.count("ot.sinkhorn.unconverged", int(not out.converged))


def _obs_evaluate(tr, args, kwargs, out):
    reps = kwargs.get("reps", args[4] if len(args) > 4 else 3)
    tr.count("knn.evaluate.distance_evals", out.distance_evals)
    tr.count("knn.evaluate.distances_computed", out.distance_evals * reps)


def _obs_metric(tr, args, kwargs, out):
    tr.note("harness.make_metric.lam", out[1] or 0.0)


def _obs_shc(tr, args, kwargs, out):
    tr.note("shc.shc_compress.lam", out.lam)
    tr.count("shc.accepted_steps", len(out.loss_history) - 1)


# (module, attribute, span name, observer); one row per place a caller
# looks the function up
PATCHES = [
    (spd, "jbld", "spd.jbld", None),
    (spd, "jbld_centroid", "spd.jbld_centroid", None),
    (scc, "jbld_distance_matrix", "scc.jbld_distance_matrix", None),
    (scc, "scc_loss_grad", "scc.scc_loss_grad", None),
    (scc, "ncg_minimize", "optim.ncg_minimize", _obs_ncg),
    (scc, "kl_loss", "neighborhood.kl_loss", None),
    (scc, "gradient_coeffs", "neighborhood.gradient_coeffs", None),
    (scc, "select_gamma_sq", "neighborhood.select_gamma_sq", _obs_gamma),
    (scc, "scc_compress", "scc.scc_compress", None),
    (shc, "kl_loss", "neighborhood.kl_loss", None),
    (shc, "gradient_coeffs", "neighborhood.gradient_coeffs", None),
    (shc, "select_gamma_sq", "neighborhood.select_gamma_sq", _obs_gamma_shc),
    (neighborhood, "kl_loss", "neighborhood.kl_loss", None),
    (shc, "sinkhorn_batch", "ot.sinkhorn_batch", _obs_batch),
    (ot, "sinkhorn_batch", "ot.sinkhorn_batch", _obs_batch),
    (shc, "sinkhorn_pairwise", "ot.sinkhorn_pairwise", None),
    (ot, "sinkhorn_pairwise", "ot.sinkhorn_pairwise", None),
    (ot, "sinkhorn", "ot.sinkhorn", _obs_sinkhorn),
    (shc, "shc_loss_grad", "shc.shc_loss_grad", None),
    (shc, "shc_init", "shc.shc_init", None),
    (shc, "rmhc_reduce", "baselines.rmhc_reduce", None),
    (shc, "shc_compress", "shc.shc_compress", _obs_shc),
    (baselines, "subsample", "baselines.subsample", None),
    (baselines, "cnn_reduce", "baselines.cnn_reduce", None),
    (baselines, "rnn_reduce", "baselines.rnn_reduce", None),
    (baselines, "fcnn_reduce", "baselines.fcnn_reduce", None),
    (baselines, "rmhc_reduce", "baselines.rmhc_reduce", None),
    (cli, "subsample", "baselines.subsample", None),
    (cli, "cnn_reduce", "baselines.cnn_reduce", None),
    (cli, "rnn_reduce", "baselines.rnn_reduce", None),
    (cli, "fcnn_reduce", "baselines.fcnn_reduce", None),
    (cli, "rmhc_reduce", "baselines.rmhc_reduce", None),
    (knn, "evaluate", "knn.evaluate", _obs_evaluate),
    (harness, "evaluate", "knn.evaluate", _obs_evaluate),
    (cli, "evaluate", "knn.evaluate", _obs_evaluate),
    (harness, "make_metric", "harness.make_metric", _obs_metric),
    (cli, "make_metric", "harness.make_metric", _obs_metric),
    (cli, "run_experiment", "harness.run_experiment", None),
    (cli, "main", "cli.main", None),
    (datasets, "gen_covariance_dataset", "datasets.gen_covariance_dataset",
     None),
    (datasets, "gen_histogram_dataset", "datasets.gen_histogram_dataset",
     None),
    (datasets, "load_dataset", "datasets.load_dataset", None),
    (cli, "load_dataset", "datasets.load_dataset", None),
]


class Tracer:
    """Spans and counters of one traced round; a context manager that
    installs the spies on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.notes: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] += k

    def note(self, name: str, value: float) -> None:
        self.notes[name] = float(value)

    def wrap(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def spy(*args, **kwargs):
            idx = len(spans)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out

        return spy

    def __enter__(self):
        for module, attr, name, observe in PATCHES:
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            if module is scc and attr == "ncg_minimize":
                orig = self._counting_ncg(orig)
            setattr(module, attr, self.wrap(name, orig, observe))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)
        return False

    def _counting_ncg(self, ncg):
        """ncg_minimize with its loss/grad callable counted (optim.fg_calls)."""
        def ncg_counted(fg, *args, **kwargs):
            def fg_counted(x):
                self.counts["optim.fg_calls"] += 1
                return fg(x)
            return ncg(fg_counted, *args, **kwargs)
        return ncg_counted

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus its children's durations.
        Calls of spd.jbld are also split by their parent span into
        query_s (under knn.evaluate) and pairwise_s (directly under
        harness.run_experiment: the train-by-train matrix).
        """
        spans = self.spans
        child = np.zeros(len(spans))
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                     "query_s": 0.0, "pairwise_s": 0.0})
        for i, (name, start, end, parent) in enumerate(spans):
            st = stats[name]
            dur = end - start
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - child[i]
            if parent >= 0:
                pname = spans[parent][0]
                if pname == "knn.evaluate":
                    st["query_s"] += dur
                elif pname == "harness.run_experiment":
                    st["pairwise_s"] += dur
        return stats

    def dump(self, path: str) -> None:
        """Write the spans as one JSON list of [name, start, end, parent]."""
        with open(path, "w") as f:
            json.dump(self.spans, f)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json that spans and counters
        give; names of layers the round never entered read zero."""
        st = self.summary()
        c, n = self.counts, self.notes

        def get(name, stat):
            return float(st[name][stat]) if name in st else 0.0

        out = {
            "spd.jbld.calls": get("spd.jbld", "calls"),
            "spd.jbld.query_s": get("spd.jbld", "query_s"),
            "spd.jbld.pairwise_s": get("spd.jbld", "pairwise_s"),
            "spd.jbld_centroid.s": get("spd.jbld_centroid", "s"),
            "optim.ncg_minimize.s": get("optim.ncg_minimize", "s"),
            "optim.ncg_minimize.n_iter": c["optim.ncg_minimize.n_iter"],
            "optim.ncg_minimize.converged": c["optim.ncg_minimize.converged"],
            "optim.fg_calls": c["optim.fg_calls"],
            "neighborhood.select_gamma_sq.s":
                get("neighborhood.select_gamma_sq", "s"),
            "neighborhood.select_gamma_sq.value":
                n.get("neighborhood.select_gamma_sq.value", 0.0),
            "ot.sinkhorn_pairwise.s": get("ot.sinkhorn_pairwise", "s"),
            "shc.shc_init.s": get("shc.shc_init", "s"),
            "harness.make_metric.lam": n.get("harness.make_metric.lam", 0.0),
            "shc.shc_compress.lam": n.get("shc.shc_compress.lam", 0.0),
            "harness.run_experiment.self_s":
                get("harness.run_experiment", "self_s"),
            "cli.main.self_s": get("cli.main", "self_s"),
            "scc.jbld_distance_matrix.calls":
                get("scc.jbld_distance_matrix", "calls"),
            "scc.jbld_distance_matrix.s": get("scc.jbld_distance_matrix", "s"),
        }
        for name in ("scc.scc_loss_grad", "neighborhood.kl_loss",
                     "neighborhood.gradient_coeffs", "ot.sinkhorn_batch",
                     "ot.sinkhorn", "shc.shc_loss_grad", "knn.evaluate"):
            out[f"{name}.calls"] = get(name, "calls")
            out[f"{name}.self_s"] = get(name, "self_s")
        for name in ("ot.sinkhorn_batch", "ot.sinkhorn"):
            out[f"{name}.iterations"] = c[f"{name}.iterations"]
            out[f"{name}.unconverged"] = c[f"{name}.unconverged"]
        for fn in ("subsample", "cnn_reduce", "rnn_reduce", "fcnn_reduce",
                   "rmhc_reduce"):
            out[f"baselines.{fn}.s"] = get(f"baselines.{fn}", "s")
        for fn in ("gen_covariance_dataset", "gen_histogram_dataset",
                   "load_dataset"):
            out[f"datasets.{fn}.s"] = get(f"datasets.{fn}", "s")
        # every shc_loss_grad call is an init call (one, plus one after
        # gamma^2 is chosen), an accepted step, or a rejected step
        init_calls = (get("shc.shc_compress", "calls")
                      + c["shc.gamma_selections"])
        out["shc.rejected_steps"] = (get("shc.shc_loss_grad", "calls")
                                     - c["shc.accepted_steps"] - init_calls)
        out["knn.evaluate.distance_evals"] = c["knn.evaluate.distance_evals"]
        computed = c["knn.evaluate.distances_computed"]
        out["knn.us_per_distance"] = (
            1e6 * get("knn.evaluate", "s") / computed if computed else 0.0)
        return out
