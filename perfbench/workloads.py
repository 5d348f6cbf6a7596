"""The benchmark's four workloads, driven through knncompress's public API.

Each workload has three steps.  `setup(seed, workdir)` builds the inputs
(dataset generation, split and, where the CLI reads files, the JSON files);
the runner times it as set-up.  `run(inputs, probe)` is the timed part:
each phase runs inside `probe()` (a `speed.SpeedProbe`) and the raw
outputs come back.  `score(inputs, raw)` checks those outputs and turns
them into one `Round`: the end-to-end values at nominal machine speed, the
raw wall time, and operations attempted and failed.  One operation is one
compress call or one test query; it fails when it raises or when its
output fails the workload's check.

Query rates are test queries over the query phase's time at nominal
speed, so that they and the probe's factor average over the same
interval (EvalReport.wall_time is a median over repetitions).

Inputs: every workload draws its dataset with the generator seed DATA_SEED,
so that work per run depends little on the benchmark's --seed: across
generator seeds 0-4 the Sinkhorn work of shc_compress varies 2.4 times
(hard pairs set the cost of each batched solve).  DATA_SEED = 2 is the
median of those five datasets by that work.  cov-scc also splits with
DATA_SEED, and --seed picks SCC's initialization: the split moved SCC's
loss/grad calls more than the initialization did (190-236 against 201-231
over eight seeds), and compress_s spread 0.24 against 0.12 (IQR over
median, seeds 51-55).  hist-shc splits and initializes with --seed; a
fixed split did not make it steadier.  cov-select passes --seed to
`knncompress bench`, which splits and selects with it.  hist-tight fixes
its split, reference and queries too, and its seed only orders the
queries: a lambda=200 pair takes from under 200 to the 2000-iteration
cap, so which pairs a seed draws moves query_per_s by more than its bound
allows (17% between seeds with the reference drawn per seed, 12-17% with
only 24 queries drawn per seed).

Why these four:
  cov-scc     criterion-6 shape: SCC learning (scc, optim, neighborhood)
              and the per-pair JBLD query loop; no ot.
  hist-shc    criterion-7 shape: SHC with batched and per-pair Sinkhorn in
              the exp domain (lambda=2); no spd.
  cov-select  `knncompress bench` in-process: the selection baselines, the
              JBLD pairwise matrix, the JBLD centroid and many queries
              against 4-61-member references; no scc, optim or ot.
  hist-tight  `knncompress compress` and the `knncompress eval --lambda
              200` path: exp(-lambda M) underflows, so every pair runs the
              log-domain Sinkhorn solver.  The other side of the exp/log
              choice in ot.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
from dataclasses import dataclass

import numpy as np

from knncompress import cli, datasets, harness, knn, scc, shc

DATA_SEED = 2


@dataclass
class Round:
    """One timed round: end-to-end values and the checks' verdict."""
    metrics: dict[str, float]
    attempted: int
    failed: int


# --- checks -------------------------------------------------------------------

def spd_ok(prototypes) -> bool:
    """Every prototype passes Cholesky."""
    for P in prototypes:
        try:
            np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            return False
    return True


def simplex_ok(prototypes, tol: float = 1e-9) -> bool:
    """Every prototype sums to one within tol and has no negative entry."""
    return all(abs(float(np.sum(h)) - 1.0) <= tol and not np.any(h < 0)
               for h in prototypes)


def loss_ok(history) -> bool:
    """The final loss is finite and no higher than the initial one."""
    return (len(history) > 0 and all(math.isfinite(v) for v in history)
            and history[-1] <= history[0])


def rate_ok(error_rate) -> bool:
    return (isinstance(error_rate, (int, float))
            and math.isfinite(error_rate) and 0.0 <= error_rate <= 1.0)


def eval_ok(rep, n_test: int, n_reference: int) -> bool:
    """Criterion 8's count identity, a positive time and a valid error rate."""
    return (rep.n_test == n_test
            and rep.distance_evals == n_test * n_reference
            and math.isfinite(rep.wall_time) and rep.wall_time > 0
            and rate_ok(rep.error_rate))


def _timing(phases: dict, **values) -> dict:
    """total_s (nominal) and raw_total_s over all phases, plus values."""
    values["total_s"] = sum(p.nominal_wall for p in phases.values())
    values["raw_total_s"] = sum(p.wall for p in phases.values())
    return values


def _quiet_cli(argv) -> int:
    """cli.main(argv) in-process with its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# --- workloads ------------------------------------------------------------------

@dataclass
class Inputs:
    seed: int
    workdir: str
    train: datasets.LabeledDataset
    test: datasets.LabeledDataset
    files: dict


class CovScc:
    name = "cov-scc"
    # one pass over the prototypes takes about 0.4 s; five passes give the
    # speed probe enough samples
    reps = 5

    def __init__(self, per_class=200, m=24, max_iter=100):
        self.per_class, self.m, self.max_iter = per_class, m, max_iter

    def setup(self, seed, workdir) -> Inputs:
        data = datasets.gen_covariance_dataset(3, self.per_class, 5, 8, 1.0,
                                               DATA_SEED)
        train, test = harness.split_dataset(data, DATA_SEED, test_frac=0.5)
        return Inputs(seed, workdir, train, test, {})

    def ops(self, inp) -> int:
        return 1 + 2 * len(inp.test)

    def run(self, inp, probe) -> dict:
        with probe() as compress:
            state = scc.scc_compress(inp.train, self.m, scc.SccConfig(
                max_iter=self.max_iter, seed=inp.seed))
        with probe() as query:
            metric, _ = harness.make_metric(inp.train)
            reference = state.to_dataset(inp.train)
            rep = knn.evaluate(inp.test, reference, metric, reps=self.reps)
        with probe() as full_query:
            full = knn.evaluate(inp.test, inp.train, metric, reps=1)
        return {"state": state, "reference": reference, "rep": rep,
                "full": full, "phases": {"compress": compress,
                                         "query": query,
                                         "full_query": full_query}}

    def score(self, inp, raw) -> Round:
        n = len(inp.test)
        state, rep, full = raw["state"], raw["rep"], raw["full"]
        phases = raw["phases"]
        failed = int(not (spd_ok(state.prototypes())
                          and loss_ok(state.loss_history)))
        failed += n * (not eval_ok(rep, n, len(raw["reference"])))
        failed += n * (not eval_ok(full, n, len(inp.train)))
        return Round(_timing(
            phases,
            compress_s=phases["compress"].nominal_wall,
            query_per_s=n * self.reps / phases["query"].nominal_wall,
            full_query_per_s=n / phases["full_query"].nominal_wall,
            test_error=rep.error_rate,
            train_loss=state.loss_history[-1],
        ), self.ops(inp), failed)


class HistShc:
    name = "hist-shc"
    lam = 2.0

    def __init__(self, per_class=200, m=24, max_iter=40, rmhc_steps=100):
        self.per_class, self.m = per_class, m
        self.max_iter, self.rmhc_steps = max_iter, rmhc_steps

    def setup(self, seed, workdir) -> Inputs:
        data = datasets.gen_histogram_dataset(3, self.per_class, 20, 5.0,
                                              DATA_SEED)
        train, test = harness.split_dataset(data, seed, test_frac=0.5)
        return Inputs(seed, workdir, train, test, {})

    def ops(self, inp) -> int:
        return 1 + len(inp.test)

    def run(self, inp, probe) -> dict:
        with probe() as compress:
            state = shc.shc_compress(inp.train, self.m, config=shc.ShcConfig(
                max_iter=self.max_iter, lam=self.lam, sinkhorn_tol=1e-4,
                sinkhorn_max_iter=3000, rmhc_steps=self.rmhc_steps,
                seed=inp.seed))
        with probe() as query:
            metric, _ = harness.make_metric(inp.train, self.lam)
            reference = state.to_dataset(inp.train)
            rep = knn.evaluate(inp.test, reference, metric, reps=1)
        return {"state": state, "reference": reference, "rep": rep,
                "phases": {"compress": compress, "query": query}}

    def score(self, inp, raw) -> Round:
        n = len(inp.test)
        state, rep, phases = raw["state"], raw["rep"], raw["phases"]
        final_loss = state.best_snapshot[1]
        failed = int(not (simplex_ok(state.prototypes())
                          and loss_ok([state.loss_history[0], final_loss])))
        failed += n * (not eval_ok(rep, n, len(raw["reference"])))
        return Round(_timing(
            phases,
            compress_s=phases["compress"].nominal_wall,
            query_per_s=n / phases["query"].nominal_wall,
            test_error=rep.error_rate,
            train_loss=final_loss,
        ), self.ops(inp), failed)


RECORD_KEYS = ("method", "ratio", "seed", "m_requested", "m_actual",
               "error_rate", "full_error_rate", "train_time", "eval_time",
               "speedup", "distance_evals")


class CovSelect:
    name = "cov-select"
    methods = ("subsample", "cnn", "rnn", "fcnn", "rmhc")
    ratios = (0.02, 0.04, 0.08, 0.16)

    def __init__(self, per_class=100, rmhc_steps=100):
        self.per_class, self.rmhc_steps = per_class, rmhc_steps

    def setup(self, seed, workdir) -> Inputs:
        files = {k: os.path.join(workdir, f"{self.name}-{k}")
                 for k in ("data.json", "plan.json", "records.jsonl")}
        data = datasets.gen_covariance_dataset(3, self.per_class, 5, 8, 1.0,
                                               DATA_SEED)
        datasets.save_dataset(data, files["data.json"])
        data = datasets.load_dataset(files["data.json"])
        # the split run_experiment will make, to know n_test for the checks
        train, test = harness.split_dataset(data, seed)
        with open(files["plan.json"], "w") as f:
            json.dump({"methods": list(self.methods),
                       "ratios": list(self.ratios), "seeds": [seed],
                       "rmhc_steps": self.rmhc_steps}, f)
        return Inputs(seed, workdir, train, test, files)

    def ops(self, inp) -> int:
        return len(self.methods) * len(self.ratios) * (1 + len(inp.test))

    def run(self, inp, probe) -> dict:
        files = inp.files
        with probe() as bench:
            code = _quiet_cli(["bench", "--plan", files["plan.json"],
                                  "--data", files["data.json"],
                                  "--out", files["records.jsonl"],
                                  "--deterministic"])
        with open(files["records.jsonl"]) as f:
            lines = f.read().splitlines()
        return {"code": code, "lines": lines, "phases": {"bench": bench}}

    def record_ok(self, line: str, n_test: int) -> bool:
        """One JSONL record: well formed, m_actual >= 1, counts consistent."""
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            return False
        if not isinstance(rec, dict) or any(k not in rec for k in RECORD_KEYS):
            return False
        m = rec["m_actual"]
        times = (rec["train_time"], rec["eval_time"], rec["speedup"])
        return (isinstance(m, int) and m >= 1
                and rec["distance_evals"] == n_test * m
                and rec["method"] in self.methods
                and rec["ratio"] in self.ratios
                and rate_ok(rec["error_rate"])
                and rate_ok(rec["full_error_rate"])
                and all(isinstance(t, (int, float)) and math.isfinite(t)
                        and t > 0 for t in times))

    def score(self, inp, raw) -> Round:
        n = len(inp.test)
        per_cell = 1 + n
        if raw["code"] != 0:
            return Round({}, self.ops(inp), self.ops(inp))
        good = [json.loads(line) for line in raw["lines"]
                if self.record_ok(line, n)]
        failed = self.ops(inp) - per_cell * len(good)
        if not good:
            return Round({}, self.ops(inp), failed)
        bench = raw["phases"]["bench"]
        eval_s = sum(r["eval_time"] for r in good)
        # full.wall_time = speedup * eval_time in every record
        full_s = good[0]["speedup"] * good[0]["eval_time"]
        return Round(_timing(
            raw["phases"],
            compress_s=bench.nominal(sum(r["train_time"] for r in good)),
            query_per_s=n * len(good) / bench.nominal(eval_s),
            full_query_per_s=n / bench.nominal(full_s),
            test_error=float(np.mean([r["error_rate"] for r in good])),
        ), self.ops(inp), failed)


class HistTight:
    name = "hist-tight"
    compress_reps = 15

    def __init__(self, per_class=200, n_queries=12, lam=200.0):
        self.per_class, self.n_queries, self.lam = per_class, n_queries, lam

    def setup(self, seed, workdir) -> Inputs:
        files = {k: os.path.join(workdir, f"{self.name}-{k}")
                 for k in ("train.json", "reference.json")}
        data = datasets.gen_histogram_dataset(3, self.per_class, 20, 5.0,
                                              DATA_SEED)
        train, test = harness.split_dataset(data, DATA_SEED, test_frac=0.5)
        picked = datasets.stratified_indices(
            test.labels, self.n_queries, np.random.default_rng(DATA_SEED))
        queries = test.subset(np.random.default_rng(seed).permutation(picked))
        datasets.save_dataset(train, files["train.json"])
        return Inputs(seed, workdir, train, queries, files)

    def ops(self, inp) -> int:
        return self.compress_reps + len(inp.test)

    def run(self, inp, probe) -> dict:
        files = inp.files
        # one member per class
        ratio = inp.train.n_classes / len(inp.train)
        argv = ["compress", "--method", "subsample", "--ratio", repr(ratio),
                "--seed", str(DATA_SEED), "--in", files["train.json"],
                "--out", files["reference.json"]]
        # one call takes about 5 ms, so it is repeated and its median taken
        with probe() as compress:
            calls = [compress.timed(lambda: _quiet_cli(argv))
                     for _ in range(self.compress_reps)]
        codes = [code for code, _ in calls]
        # what `knncompress eval --lambda 200` does, with one repetition
        # in place of its three: 36 distinct pairs (about 0.3 s each)
        with probe() as query:
            reference = datasets.load_dataset(files["reference.json"])
            metric, _ = harness.make_metric(reference, self.lam)
            rep = knn.evaluate(inp.test, reference, metric, reps=1)
        return {"codes": codes, "compress_times": [t for _, t in calls],
                "reference": reference, "rep": rep,
                "phases": {"compress": compress, "query": query}}

    def score(self, inp, raw) -> Round:
        n = len(inp.test)
        reference, rep, phases = raw["reference"], raw["rep"], raw["phases"]
        # every call writes the same file, so a bad file fails them all
        reference_ok = (sorted(reference.labels.tolist())
                        == list(range(inp.train.n_classes))
                        and simplex_ok(reference.members))
        codes = raw["codes"]
        failed = (sum(code != 0 for code in codes) if reference_ok
                  else len(codes))
        failed += n * (not eval_ok(rep, n, inp.train.n_classes))
        return Round(_timing(
            phases,
            compress_s=statistics.median(raw["compress_times"]),
            query_per_s=n / phases["query"].nominal_wall,
            test_error=rep.error_rate,
        ), self.ops(inp), failed)


WORKLOADS = {w.name: w for w in (CovScc, HistShc, CovSelect, HistTight)}
