"""Experiment harness: error-vs-compression and speedup measurement.

Runs a grid of (method, ratio, seed) cells on a labeled dataset with a
stratified 70/30 split, recording per-cell error, training time, and
wall-clock speedup against full-training-set kNN.  Results are emitted as
JSON-lines records plus a rendered plain-text table.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, ot, shc, spd
from .datasets import LabeledDataset, stratified_indices
from .errors import BadParameters, DegeneratePi
from .knn import evaluate, pairwise_distances
from .neighborhood import gamma_sq_grid
from .scc import SccConfig, jbld_midpoints, scc_compress, scc_init
from .shc import ShcConfig, default_lambda, shc_compress

FEW_CLASS_RATIOS = (0.02, 0.04, 0.08, 0.16)

# bound at import: the covariance metric keeps its batched jbld.matrix even
# where a wrapper (a profiler's) later replaces spd.jbld
_JBLD = spd.jbld


@dataclass
class ExperimentPlan:
    ratios: tuple = FEW_CLASS_RATIOS
    methods: tuple = ("subsample",)
    seeds: tuple = (0,)
    k: int = 1
    gamma_sq: float | None = None
    lam: float | None = None
    scc_max_iter: int = 100
    shc_max_iter: int = 60
    rmhc_steps: int = 100
    tune: bool = False

    def __post_init__(self):
        for r in self.ratios:
            if not 0 < r <= 1:
                raise BadParameters(f"ratio {r} outside (0, 1]")
        for m in self.methods:
            if m not in COMPRESSORS:
                raise BadParameters(f"unknown method {m!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentPlan":
        kwargs = {k: v for k, v in doc.items() if k in cls.__dataclass_fields__}
        for key in ("ratios", "methods", "seeds"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def make_metric(dataset: LabeledDataset, lam: float | None = None,
                sinkhorn_tol: float = 1e-6, sinkhorn_max_iter: int = 2000):
    """Distance callable for the dataset's family; returns (metric, lam).

    Both families' callables carry the batched form
    ``.matrix(queries, members)``; the Sinkhorn one is
    ``ot.sinkhorn_matrix``, whose per-column exit makes it equal the
    per-pair distances.
    """
    if dataset.family == "covariance":
        return _JBLD, None
    M = dataset.ground_metric
    lam = lam if lam is not None else default_lambda(M)

    def metric(h, hp):
        return ot.sinkhorn(h, hp, M, lam, tol=sinkhorn_tol,
                           max_iter=sinkhorn_max_iter).distance

    def matrix(queries, members):
        return ot.sinkhorn_matrix(queries, members, M, lam, sinkhorn_tol,
                                  sinkhorn_max_iter)[0]

    metric.matrix = matrix
    return metric, lam


def split_dataset(dataset: LabeledDataset, seed: int, test_frac: float = 0.3):
    """Stratified train/test split, deterministic under seed."""
    n = len(dataset)
    rng = np.random.default_rng(seed + 0x5EED)
    n_test = max(1, round(test_frac * n))
    test_idx = stratified_indices(dataset.labels, n_test, rng)
    train_idx = np.setdiff1d(np.arange(n), test_idx)
    return dataset.subset(train_idx), dataset.subset(test_idx)


def _centroid_fn(train: LabeledDataset, lam: float | None):
    if train.family == "covariance":
        return lambda members: spd.jbld_centroid(members, tol=1e-8, max_iter=100)
    M = train.ground_metric
    return lambda members: ot.sinkhorn_barycenter(members, M, lam,
                                                  tol=1e-8, max_iter=500)


class _Cell:
    """One (method, ratio, seed) cell.  Its cache, shared by the cells of
    one train set and plan, builds the train-by-train matrix and the CNN,
    RNN and FCNN runs once, on first use."""

    def __init__(self, train, ratio, seed, plan, cache):
        self.train, self.ratio, self.seed, self.plan = train, ratio, seed, plan
        self.cache = cache
        self.m = max(1, round(ratio * len(train)))
        self.metric, self.lam = make_metric(train, plan.lam)

    def cached(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def dist(self) -> np.ndarray:
        return self.cached("dist", lambda: pairwise_distances(
            self.train.members, self.metric))

    def select(self, rs: baselines.ReducedSet) -> LabeledDataset:
        """The members rs picked, or its snapshot at the cell's ratio."""
        return self.train.subset(rs.snapshots.get(self.ratio, rs.indices))


# The selection methods look baselines.<name> up when they run, so that a
# wrapper put on that module (a profiler's) sees every call.

def _cnn(c: _Cell) -> baselines.ReducedSet:
    return c.cached(("cnn", c.seed), lambda: baselines.cnn_reduce(
        c.train, c.metric, c.seed, dist_matrix=c.dist(),
        snapshot_ratios=c.plan.ratios))


def _rnn(c: _Cell) -> baselines.ReducedSet:
    return c.cached(("rnn", c.seed), lambda: baselines.rnn_reduce(
        _cnn(c), c.train, c.metric, seed=c.seed, dist_matrix=c.dist()))


def _fcnn(c: _Cell) -> baselines.ReducedSet:
    return c.cached(("fcnn", c.seed), lambda: baselines.fcnn_reduce(
        c.train, c.metric, _centroid_fn(c.train, c.lam), dist_matrix=c.dist(),
        snapshot_ratios=c.plan.ratios))


def _scc(c: _Cell) -> LabeledDataset:
    cfg = SccConfig(max_iter=c.plan.scc_max_iter, gamma_sq=c.plan.gamma_sq,
                    seed=c.seed)
    if c.plan.tune:
        cfg.gamma_sq = _tune_scc(c, cfg)
    return scc_compress(c.train, c.m, cfg).to_dataset(c.train)


def _shc(c: _Cell) -> LabeledDataset:
    cfg = ShcConfig(max_iter=c.plan.shc_max_iter, gamma_sq=c.plan.gamma_sq,
                    lam=c.lam, rmhc_steps=c.plan.rmhc_steps, seed=c.seed)
    if c.plan.tune:
        cfg.gamma_sq, cfg.learn_rate = _tune_shc(c, cfg)
    return shc_compress(c.train, c.m, config=cfg).to_dataset(c.train)


# method name -> builder of its reference set; the only list of methods
COMPRESSORS = {
    "scc": _scc,
    "shc": _shc,
    "subsample": lambda c: c.select(baselines.subsample(c.train, c.m, c.seed)),
    "cnn": lambda c: c.select(_cnn(c)),
    "rnn": lambda c: c.select(_rnn(c)),
    "fcnn": lambda c: c.select(_fcnn(c)),
    "rmhc": lambda c: c.select(baselines.rmhc_reduce(
        c.train, c.m, c.metric, c.plan.rmhc_steps, c.seed,
        dist_matrix=c.dist())),
}


def compress(method: str, train: LabeledDataset, ratio: float, seed: int,
             plan: ExperimentPlan, cache: dict | None = None) -> LabeledDataset:
    """Reference set of `method` for m = round(ratio * len(train)) members.

    CNN and FCNN return their snapshot at ratio, which must be one of
    plan.ratios; RNN returns its full set.  Pass one `cache` dict to every
    cell of a train set and plan to build their shared parts once.
    """
    if method not in COMPRESSORS:
        raise BadParameters(f"unknown method {method!r}")
    if ratio not in plan.ratios:
        raise BadParameters(f"ratio {ratio} is not in the plan's ratios")
    return COMPRESSORS[method](
        _Cell(train, ratio, seed, plan, {} if cache is None else cache))


def _pick(configs, run, val, metric, k):
    """The first config whose reference set run(config) errs least on val.

    A config whose run raises DegeneratePi is discarded; if every one
    does, the last such error propagates.
    """
    errs, failure = [], None
    for cfg in configs:
        try:
            reference = run(cfg)
        except DegeneratePi as e:
            errs.append(np.inf)
            failure = e
            continue
        errs.append(evaluate(val, reference, metric, k=k, reps=1).error_rate)
    if min(errs) == np.inf:
        raise failure
    return configs[int(np.argmin(errs))]


def _tune_scc(c: _Cell, cfg: SccConfig) -> float:
    """Pick gamma^2 on a 20% validation carve-out by kNN error."""
    sub, val = split_dataset(c.train, c.seed + 1, test_frac=0.2)
    m_sub = min(c.m, len(sub))
    st = scc_init(sub, m_sub, c.seed)
    D0 = jbld_midpoints(st.factors, sub.members)[0]
    configs = [SccConfig(max_iter=max(10, cfg.max_iter // 4), gamma_sq=g,
                         seed=c.seed) for g in gamma_sq_grid(D0)]
    return _pick(configs, lambda k: scc_compress(sub, m_sub, k).to_dataset(sub),
                 val, c.metric, c.plan.k).gamma_sq


def _tune_shc(c: _Cell, cfg: ShcConfig) -> tuple[float, float]:
    """Pick gamma^2 and the learning rate as _tune_scc picks gamma^2."""
    sub, val = split_dataset(c.train, c.seed + 1, test_frac=0.2)
    m_sub = min(c.m, len(sub))
    metric, lam = make_metric(sub, cfg.lam)
    st = shc.shc_init(sub, m_sub, c.seed, rmhc_steps=0, lam=lam)
    _, _, D0 = shc.shc_loss_grad(st, sub)
    configs = [ShcConfig(max_iter=max(10, cfg.max_iter // 4), gamma_sq=g,
                         learn_rate=lr, lam=lam, rmhc_steps=cfg.rmhc_steps,
                         seed=c.seed)
               for g in gamma_sq_grid(D0) for lr in (0.1, 1.0, 10.0)]
    best = _pick(configs,
                 lambda k: shc_compress(sub, m_sub, config=k).to_dataset(sub),
                 val, metric, c.plan.k)
    return best.gamma_sq, best.learn_rate


def run_experiment(plan: ExperimentPlan, dataset: LabeledDataset,
                   out_path: str | None = None,
                   progress: bool = False) -> list[dict]:
    """Run every (method, ratio, seed) cell; return one record per cell."""
    records = []
    sink = open(out_path, "w") if out_path else None
    try:
        for seed in plan.seeds:
            train, test = split_dataset(dataset, seed)
            metric, lam = make_metric(dataset, plan.lam)
            full = evaluate(test, train, metric, k=plan.k)
            cache: dict = {}
            for method in plan.methods:
                for ratio in plan.ratios:
                    t0 = time.perf_counter()
                    reference = compress(method, train, ratio, seed, plan,
                                         cache)
                    train_time = time.perf_counter() - t0
                    rep = evaluate(test, reference, metric, k=plan.k,
                                   reference_time=full.wall_time)
                    rec = {
                        "method": method,
                        "ratio": ratio,
                        "seed": seed,
                        "m_requested": max(1, round(ratio * len(train))),
                        "m_actual": len(reference),
                        "error_rate": rep.error_rate,
                        "full_error_rate": full.error_rate,
                        "train_time": train_time,
                        "eval_time": rep.wall_time,
                        "speedup": rep.speedup_vs_reference,
                        "distance_evals": rep.distance_evals,
                    }
                    records.append(rec)
                    if sink is not None:
                        sink.write(json.dumps(rec) + "\n")
                        sink.flush()
                    if progress:
                        print(f"[{method} r={ratio} seed={seed}] "
                              f"err={rep.error_rate:.4f} "
                              f"(full {full.error_rate:.4f}) "
                              f"speedup={rep.speedup_vs_reference:.1f}x")
    finally:
        if sink is not None:
            sink.close()
    return records


def summary_table(records: list[dict]) -> str:
    """Mean +/- std of error and speedup per (method, ratio)."""
    cells: dict[tuple, list[dict]] = {}
    for r in records:
        cells.setdefault((r["method"], r["ratio"]), []).append(r)
    lines = [f"{'method':<10} {'ratio':>6} {'error':>16} {'speedup':>16} {'m':>5}"]
    for (method, ratio) in sorted(cells):
        rs = cells[(method, ratio)]
        errs = np.array([r["error_rate"] for r in rs])
        sps = np.array([r["speedup"] for r in rs], dtype=float)
        ms = int(np.mean([r["m_actual"] for r in rs]))
        lines.append(
            f"{method:<10} {ratio:>6.2f} "
            f"{errs.mean():>8.4f}+/-{errs.std():<6.4f} "
            f"{sps.mean():>8.1f}+/-{sps.std():<6.1f} {ms:>5d}")
    full = records[0]["full_error_rate"] if records else float("nan")
    lines.append(f"full 1-NN reference error: {full:.4f}")
    return "\n".join(lines)
