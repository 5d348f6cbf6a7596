"""Experiment harness: error-vs-compression and speedup measurement.

Runs a grid of (method, ratio, seed) cells on a labeled dataset with a
stratified 70/30 split, recording per-cell error, training time, and
wall-clock speedup against full-training-set kNN.  Results are emitted as
JSON-lines records plus a rendered plain-text table.
"""
from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, ot, scc, shc, spd
from .datasets import LabeledDataset, stratified_indices
from .errors import BadParameters, DegeneratePi
from .knn import evaluate, pairwise_distances
from .neighborhood import check_config, check_counts, gamma_sq_grid, is_a

FEW_CLASS_RATIOS = (0.02, 0.04, 0.08, 0.16)

# bound at import: the covariance metric keeps its batched forms even
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
        for name in ("ratios", "methods", "seeds"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise BadParameters(f"{name} must be a non-empty list")
            setattr(self, name, tuple(values))
        for r in self.ratios:
            if not (is_a(r, numbers.Real) and 0 < r <= 1):
                raise BadParameters(f"ratios must be numbers in (0, 1], "
                                    f"got {r!r}")
        for m in self.methods:
            if not (isinstance(m, str) and m in COMPRESSORS):
                raise BadParameters(f"methods must be among "
                                    f"{', '.join(COMPRESSORS)}, got {m!r}")
        check_counts(**{f"seeds[{i}]": s for i, s in enumerate(self.seeds)})
        check_counts(1, k=self.k)
        if not isinstance(self.tune, bool):
            raise BadParameters(f"tune must be true or false, got "
                                f"{self.tune!r}")
        check_config(self, ("scc_max_iter", "shc_max_iter", "rmhc_steps"),
                     ("gamma_sq", "lam"))
        if self.tune and self.gamma_sq is not None:  # tuning would drop it
            raise BadParameters("gamma_sq must be null when tune is true")

    @classmethod
    def from_dict(cls, doc) -> "ExperimentPlan":
        if not isinstance(doc, dict):
            raise BadParameters("a plan must be a JSON object")
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise BadParameters(f"unknown plan keys: {', '.join(unknown)}")
        return cls(**doc)


def make_metric(dataset: LabeledDataset, lam: float | None = None,
                sinkhorn_max_iter: int = 2000):
    """Distance callable for the dataset's family; returns (metric, lam).

    Both families' callables carry the batched forms
    ``.matrix(queries, members)`` and ``.pairwise(members)`` and compute
    one pair through their own ``.matrix``.  The Sinkhorn ones are
    ``ot.sinkhorn_matrix``, which returns the distances and the pairs'
    converged flags, and ``ot.sinkhorn_pairwise``.
    """
    if dataset.family == "covariance":
        return _JBLD, None
    M = dataset.ground_metric
    lam = lam if lam is not None else shc.default_lambda(M)

    def metric(h, hp):
        return float(metric.matrix([h], [hp])[0][0, 0])

    metric.matrix = lambda queries, members: ot.sinkhorn_matrix(
        queries, members, M, lam, 1e-6, sinkhorn_max_iter)
    metric.pairwise = lambda members: ot.sinkhorn_pairwise(
        members, M, lam, 1e-6, sinkhorn_max_iter)
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


def _budget(ratio: float, n: int) -> int:
    return max(1, round(ratio * n))


class _Cell:
    """One (method, m, seed) cell.  Its cache, shared by the cells of one
    train set and plan, builds the train-by-train matrix and the CNN, RNN
    and FCNN runs once, on first use."""

    def __init__(self, train, m, seed, plan, cache):
        self.train, self.m, self.seed, self.plan = train, m, seed, plan
        self.cache = cache
        self.metric, self.lam = make_metric(train, plan.lam)

    def cached(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def dist(self) -> np.ndarray:
        return self.cached("dist", lambda: pairwise_distances(
            self.train.members, self.metric))

    def select(self, rs: baselines.ReducedSet) -> LabeledDataset:
        """The set rs had grown to at the cell's m."""
        return self.train.subset(rs.indices[rs.joined < self.m])


# The selection methods look baselines.<name> up when they run, so that a
# wrapper put on that module (a profiler's) sees every call.

def _cnn(c: _Cell) -> baselines.ReducedSet:
    return c.cached(("cnn", c.seed), lambda: baselines.cnn_reduce(
        c.train, c.dist(), c.seed))


def _rnn(c: _Cell) -> baselines.ReducedSet:
    return c.cached(("rnn", c.seed), lambda: baselines.rnn_reduce(
        _cnn(c), c.train, c.dist(), seed=c.seed))


def _fcnn(c: _Cell) -> baselines.ReducedSet:
    return c.cached(("fcnn", c.seed), lambda: baselines.fcnn_reduce(
        c.train, c.dist(), c.metric, _centroid_fn(c.train, c.lam)))


def _rmhc(c: _Cell) -> baselines.ReducedSet:
    if c.plan.rmhc_steps == 0:  # the same members, and no matrix to build
        return baselines.subsample(c.train, c.m, c.seed)
    return baselines.rmhc_reduce(c.train, c.m, c.dist(), c.plan.rmhc_steps,
                                 c.seed)


def _scc(c: _Cell) -> LabeledDataset:
    cfg = scc.SccConfig(max_iter=c.plan.scc_max_iter,
                        gamma_sq=c.plan.gamma_sq, seed=c.seed)
    if c.plan.tune:
        cfg = replace(cfg, gamma_sq=_tune_scc(c, cfg))
    return scc.scc_compress(c.train, c.m, cfg).to_dataset(c.train)


def _shc(c: _Cell) -> LabeledDataset:
    cfg = shc.ShcConfig(max_iter=c.plan.shc_max_iter,
                        gamma_sq=c.plan.gamma_sq, lam=c.lam,
                        rmhc_steps=c.plan.rmhc_steps, seed=c.seed)
    if c.plan.tune:
        gamma_sq, learn_rate = _tune_shc(c, cfg)
        cfg = replace(cfg, gamma_sq=gamma_sq, learn_rate=learn_rate)
    return shc.shc_compress(c.train, c.m, cfg).to_dataset(c.train)


# method name -> builder of its reference set; the only list of methods
COMPRESSORS = {
    "scc": _scc,
    "shc": _shc,
    "subsample": lambda c: c.select(baselines.subsample(c.train, c.m, c.seed)),
    "cnn": lambda c: c.select(_cnn(c)),
    "rnn": lambda c: c.select(_rnn(c)),
    "fcnn": lambda c: c.select(_fcnn(c)),
    "rmhc": lambda c: c.select(_rmhc(c)),
}


def compress(method: str, train: LabeledDataset, m: int, seed: int,
             plan: ExperimentPlan, cache: dict | None = None) -> LabeledDataset:
    """Reference set of `method` for a budget of m >= 1 members.

    CNN and FCNN return the set they had grown to at m; RNN returns its
    full set.  Pass one `cache` dict to every cell of a train set and plan
    to build their shared parts once.
    """
    if method not in COMPRESSORS:
        raise BadParameters(f"unknown method {method!r}")
    check_counts(1, m=m)
    return COMPRESSORS[method](
        _Cell(train, m, seed, plan, {} if cache is None else cache))


def _pick(c: _Cell, val, configs, run):
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
        errs.append(evaluate(val, reference, c.metric, k=c.plan.k,
                             reps=1).error_rate)
    if min(errs) == np.inf:
        raise failure
    return configs[int(np.argmin(errs))]


def _carve_out(c: _Cell, cfg):
    """Tuning's 20% validation carve-out: (sub, val, the m of the start on
    sub, cfg at the candidates' iteration budget)."""
    sub, val = split_dataset(c.train, c.seed + 1, test_frac=0.2)
    return (sub, val, min(c.m, len(sub)),
            replace(cfg, max_iter=max(10, cfg.max_iter // 4)))


def _tune_scc(c: _Cell, cfg: scc.SccConfig) -> float:
    """Pick gamma^2 on the carve-out by kNN error; the grid and every
    candidate start from one carve-out start and share its objective."""
    sub, val, m, base = _carve_out(c, cfg)
    start = scc.scc_init(sub, m, c.seed)
    objective = scc.SccObjective(sub.members, m)
    D0 = scc.jbld_distance_matrix(start.factors, sub.members, objective)
    configs = [replace(base, gamma_sq=g) for g in gamma_sq_grid(D0)]
    return _pick(c, val, configs, lambda k: scc.descend(
        start, sub, k, objective).to_dataset(sub)).gamma_sq


def _tune_shc(c: _Cell, cfg: shc.ShcConfig) -> tuple[float, float]:
    """Pick gamma^2 and the learning rate as _tune_scc picks gamma^2."""
    sub, val, m, base = _carve_out(c, cfg)
    start = shc.shc_init(sub, m, cfg)
    _, _, D0 = shc.shc_loss_grad(start, sub, config=cfg)
    configs = [replace(base, gamma_sq=g, learn_rate=lr)
               for g in gamma_sq_grid(D0) for lr in (0.1, 1.0, 10.0)]
    best = _pick(c, val, configs, lambda k: shc.descend(
        start, sub, k).to_dataset(sub))
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
                    m = _budget(ratio, len(train))
                    t0 = time.perf_counter()
                    reference = compress(method, train, m, seed, plan, cache)
                    train_time = time.perf_counter() - t0
                    rep = evaluate(test, reference, metric, k=plan.k,
                                   reference_time=full.wall_time)
                    rec = {
                        "method": method,
                        "ratio": ratio,
                        "seed": seed,
                        "m_requested": m,
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
