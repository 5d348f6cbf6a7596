"""Acceptance suite: eleven go/no-go checks covering gradient correctness,
transport oracles, geometry invariances, end-to-end compression quality,
speedup accounting, baseline properties, structural preservation, and
bit-exact determinism.  Each test prints one [PASS]/[FAIL] line.
"""
import json
import sys
import time
import warnings

import numpy as np
import pytest

import conftest
from knncompress import cli, ot, scc, shc, spd
from knncompress.baselines import (
    cnn_reduce,
    fcnn_reduce,
    rmhc_reduce,
    rnn_reduce,
    subsample,
)
from knncompress.datasets import (
    LabeledDataset,
    gen_covariance_dataset,
    gen_histogram_dataset,
    stratified_indices,
)
from knncompress.errors import NoConvergence
from knncompress.knn import evaluate, pairwise_distances
from knncompress.ot import (
    clamp_histogram,
    emd_exact,
    sinkhorn,
    sinkhorn_batch,
    sinkhorn_pairwise,
)
from knncompress.spd import airm, cholesky, jbld


def report(num: int, name: str, ok: bool) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    conftest.VERDICTS.append(line)  # echoed after the run, outside capture
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def line_metric(d):
    idx = np.arange(d, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return A @ A.T + scale * d * np.eye(d)


def split_half(ds, seed):
    rng = np.random.default_rng(seed + 777)
    idx = stratified_indices(ds.labels, len(ds) // 2, rng)
    rest = np.setdiff1d(np.arange(len(ds)), idx)
    return ds.subset(idx), ds.subset(rest)


# ---------------------------------------------------------------------------
# shared end-to-end runs (criteria 6, 7, 10): executed once, instrumented so
# every optimizer iteration's prototypes get a structural check
# ---------------------------------------------------------------------------

HIST_LAM = 2.0
HIST_TOL = 1e-4


def hist_error(test, ref_members, ref_labels, M):
    """1-NN error under batched Sinkhorn distances."""
    H = np.stack(test.members)
    D = np.empty((len(test), len(ref_members)))
    against_one = np.arange(len(H)), np.zeros(len(H), dtype=int)
    for j, hp in enumerate(ref_members):
        D[:, j] = sinkhorn_batch(H, hp[None], M, HIST_LAM, tol=HIST_TOL,
                                 max_iter=3000, pairs=against_one)[0]
    pred = np.asarray(ref_labels)[np.argmin(D, axis=1)]
    return float(np.mean(pred != test.labels))


@pytest.fixture(scope="module")
def cov_runs():
    """Criterion 6 workload: 5 seeds of SCC vs subsample on Wishart data,
    with an SPD check on every optimizer iteration's factors."""
    spd_violations = [0]
    orig = scc.scc_loss_grad

    def spy(state, train, *objective):
        for B in state.factors:
            try:
                np.linalg.cholesky(B.T @ B)
            except np.linalg.LinAlgError:
                spd_violations[0] += 1
        return orig(state, train, *objective)

    rows = []
    t0 = time.perf_counter()
    scc.scc_loss_grad = spy
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(5):
                data = gen_covariance_dataset(3, 200, 5, wishart_dof=8,
                                              separation=1.0, seed=seed)
                train, test = split_half(data, seed)
                m = round(0.08 * len(train))
                full = evaluate(test, train, jbld, reps=1).error_rate
                sub = train.subset(subsample(train, m, seed).indices)
                sub_err = evaluate(test, sub, jbld, reps=1).error_rate
                st = scc.scc_compress(train, m,
                                      scc.SccConfig(max_iter=100, seed=seed))
                scc_err = evaluate(test, st.to_dataset(train), jbld,
                                   reps=1).error_rate
                rows.append({"seed": seed, "full": full, "sub": sub_err,
                             "scc": scc_err})
    finally:
        scc.scc_loss_grad = orig
    return {"rows": rows, "violations": spd_violations[0],
            "runtime": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def hist_runs():
    """Criterion 7 workload: 5 seeds of SHC vs RMHC on Dirichlet data, with
    a simplex check on every optimizer iteration's prototypes."""
    simplex_violations = [0]
    orig = shc.shc_loss_grad

    def spy(state, train, **kw):
        for h in state.prototypes():
            if abs(h.sum() - 1.0) > 1e-9 or np.any(h < 0):
                simplex_violations[0] += 1
        return orig(state, train, **kw)

    rows = []
    shc.shc_loss_grad = spy
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(5):
                data = gen_histogram_dataset(3, 200, 20, concentration=5.0,
                                             seed=seed)
                M = data.ground_metric
                train, test = split_half(data, seed)
                m = round(0.08 * len(train))
                full = hist_error(test, train.members, train.labels, M)
                dm = sinkhorn_pairwise(np.stack(train.members), M, HIST_LAM,
                                       tol=HIST_TOL, max_iter=3000)
                rs = rmhc_reduce(train, m, dm, steps=100, seed=seed)
                rmhc_err = hist_error(
                    test, [train.members[i] for i in rs.indices],
                    train.labels[rs.indices], M)
                cfg = shc.ShcConfig(max_iter=40, lam=HIST_LAM,
                                    rmhc_steps=100, seed=seed,
                                    sinkhorn_tol=HIST_TOL,
                                    sinkhorn_max_iter=3000)
                st = shc.shc_compress(train, m, config=cfg)
                shc_err = hist_error(test, list(st.prototypes()),
                                     st.labels, M)
                rows.append({"seed": seed, "full": full, "rmhc": rmhc_err,
                             "shc": shc_err})
    finally:
        shc.shc_loss_grad = orig
    return {"rows": rows, "violations": simplex_violations[0]}


# ---------------------------------------------------------------------------
# 1. SCC gradient correctness
# ---------------------------------------------------------------------------

def test_01_scc_gradient_correctness():
    t0 = time.perf_counter()
    max_rel = 0.0
    for seed in range(10):
        train = gen_covariance_dataset(2, 5, 3, wishart_dof=20,
                                       separation=1.5, seed=seed)
        state = scc.scc_init(train, 4, seed=seed)
        for gsq in (0.1, 1.0, 10.0):
            state.gamma_sq = gsq
            _, grads = scc.scc_loss_grad(state, train)
            h = 1e-5
            for j in range(4):
                for a in range(3):
                    for b in range(a, 3):
                        fd = 0.0
                        for sgn in (1.0, -1.0):
                            trial = scc.SccState(
                                state.factors.copy(),
                                state.labels, gsq)
                            trial.factors[j][a, b] += sgn * h
                            loss, _ = scc.scc_loss_grad(trial, train)
                            fd += sgn * loss / (2 * h)
                        denom = max(abs(fd), 1e-6)
                        max_rel = max(max_rel, abs(grads[j][a, b] - fd) / denom)
    runtime = time.perf_counter() - t0
    report(1, f"SCC analytic gradient vs FD (max rel {max_rel:.2e}, "
              f"{runtime:.0f}s)", max_rel < 1e-4 and runtime < 30.0)


# ---------------------------------------------------------------------------
# 2. SHC gradient adequacy
# ---------------------------------------------------------------------------

def test_02_shc_gradient_adequacy():
    errs = []
    cfg = shc.ShcConfig(sinkhorn_tol=1e-12, sinkhorn_max_iter=50000)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d, n, m = 4, 3, 2
        H = [clamp_histogram(rng.dirichlet([2.0] * d)) for _ in range(n)]
        pts = rng.standard_normal((d, 2))
        M = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        M = M / M.max() * 2.0
        train = LabeledDataset(family="histogram", dim=d, members=H,
                               labels=np.array([0, 1, 0]), ground_metric=M,
                               metadata={})
        logits = np.log(np.stack(
            [clamp_histogram(rng.dirichlet([2.0] * d)) for _ in range(m)]))
        state = shc.ShcState(logits=logits, labels=np.array([0, 1]),
                             gamma_sq=1.0, lam=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, g, _ = shc.shc_loss_grad(state, train, config=cfg)
            rng2 = np.random.default_rng(seed + 1000)
            v = rng2.standard_normal(logits.shape)
            v /= np.linalg.norm(v)
            h = 1e-5

            def at(L):
                st = shc.ShcState(L, state.labels, 1.0, 100.0)
                return shc.shc_loss_grad(st, train, config=cfg)[0]

            fd = (at(logits + h * v) - at(logits - h * v)) / (2 * h)
        errs.append(abs(fd - np.sum(g * v)) / max(abs(fd), 1e-12))
    fd_ok = max(errs) < 5e-2

    # descent quality: accepted steps must reduce the loss in >= 90% of
    # iterations over a 50-iteration run on the synthetic histogram set
    train = gen_histogram_dataset(2, 10, 6, concentration=40.0, seed=0)
    cfg = shc.ShcConfig(max_iter=50, rmhc_steps=0, seed=0,
                        sinkhorn_tol=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        st = shc.shc_compress(train, 4, config=cfg)
    hist = st.loss_history
    drops = sum(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    descent_ok = len(hist) < 2 or drops / (len(hist) - 1) >= 0.9
    report(2, f"SHC dual-gradient FD agreement (max rel {max(errs):.3f}) "
              f"and descent quality", fd_ok and descent_ok)


# ---------------------------------------------------------------------------
# 3. Sinkhorn-EMD agreement
# ---------------------------------------------------------------------------

def test_03_sinkhorn_emd_agreement():
    rng = np.random.default_rng(42)
    lams = (5.0, 20.0, 80.0, 200.0)
    ok = True
    for _ in range(100):
        d = int(rng.integers(3, 9))
        M = line_metric(d)
        h = clamp_histogram(rng.dirichlet(np.ones(d)))
        hp = clamp_histogram(rng.dirichlet(np.ones(d)))
        emd = emd_exact(h, hp, M)
        gaps = []
        for lam in lams:
            ds = sinkhorn(h, hp, M, lam, tol=1e-9, max_iter=200000).distance
            gaps.append(ds - emd)
        ok &= gaps[-1] > -1e-6
        ok &= gaps[-1] / max(emd, 1e-6) < 0.05
        ok &= all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        if not ok:
            break
    report(3, "Sinkhorn upper-bounds EMD, within 5% at lam=200, gap "
              "monotone in lam (100 pairs)", ok)


# ---------------------------------------------------------------------------
# 4. EMD oracle exactness
# ---------------------------------------------------------------------------

def test_04_emd_oracle_exactness():
    rng = np.random.default_rng(7)
    M = line_metric(8)
    worst = 0.0
    for _ in range(100):
        h = rng.dirichlet(np.ones(8))
        hp = rng.dirichlet(np.ones(8))
        got = emd_exact(h, hp, M)
        want = float(np.abs(np.cumsum(h) - np.cumsum(hp))[:-1].sum())
        worst = max(worst, abs(got - want))
    report(4, f"exact EMD equals CDF closed form "
              f"(max dev {worst:.1e})", worst < 1e-10)


# ---------------------------------------------------------------------------
# 5. Geometry invariances
# ---------------------------------------------------------------------------

def test_05_geometry_invariances():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(50):
        d = int(rng.integers(2, 6))
        X, Y = random_spd(rng, d), random_spd(rng, d)
        A = rng.standard_normal((d, d)) + np.eye(d)
        ok &= abs(jbld(A @ X @ A.T, A @ Y @ A.T) - jbld(X, Y)) < 1e-8
        ok &= abs(airm(A @ X @ A.T, A @ Y @ A.T) - airm(X, Y)) < 1e-8
        ok &= abs(jbld(X, X)) < 1e-10 and abs(airm(X, X)) < 1e-10
        B = cholesky(X)
        ok &= (np.linalg.norm(B.T @ B - X) / np.linalg.norm(X)) < 1e-12
    report(5, "JBLD/AIRM affine invariance, zero self-distance, Cholesky "
              "round trip (50 triples)", ok)


# ---------------------------------------------------------------------------
# 6. End-to-end compression, covariance family
# ---------------------------------------------------------------------------

def test_06_end_to_end_covariance(cov_runs):
    rows = cov_runs["rows"]
    mean_scc = np.mean([r["scc"] for r in rows])
    mean_full = np.mean([r["full"] for r in rows])
    beats_sub = sum(r["scc"] <= r["sub"] for r in rows)
    within = (mean_scc - mean_full) < 0.02
    ok = within and beats_sub >= 4 and cov_runs["runtime"] < 900
    report(6, f"SCC at 8% compression: mean err {mean_scc:.3f} vs full "
              f"{mean_full:.3f}, <= subsample in {beats_sub}/5 seeds, "
              f"{cov_runs['runtime']:.0f}s", ok)


# ---------------------------------------------------------------------------
# 7. End-to-end compression, histogram family
# ---------------------------------------------------------------------------

def test_07_end_to_end_histogram(hist_runs):
    rows = hist_runs["rows"]
    mean_shc = np.mean([r["shc"] for r in rows])
    mean_full = np.mean([r["full"] for r in rows])
    beats_rmhc = sum(r["shc"] <= r["rmhc"] for r in rows)
    ok = (mean_shc - mean_full) < 0.02 and beats_rmhc >= 4
    report(7, f"SHC at 8% compression: mean err {mean_shc:.3f} vs full "
              f"{mean_full:.3f}, <= RMHC in {beats_rmhc}/5 seeds", ok)


# ---------------------------------------------------------------------------
# 8. Speedup accounting
# ---------------------------------------------------------------------------

def test_08_speedup_accounting():
    data = gen_covariance_dataset(3, 200, 5, wishart_dof=8,
                                  separation=1.0, seed=0)
    train, test = split_half(data, 0)
    deltas = (0.02, 0.04, 0.08, 0.16)
    refs = {d: train.subset(subsample(train, round(d * len(train)), 0).indices)
            for d in deltas}

    def best_time(ref):
        # min over repeated medians: robust to transient machine slowdowns
        return min(evaluate(test, ref, jbld, reps=3).wall_time
                   for _ in range(2))

    full = evaluate(test, train, jbld, reps=1)
    counts_ok = all(
        evaluate(test, refs[d], jbld, reps=1).distance_evals
        == round(d * full.distance_evals) for d in deltas)

    ok, details = False, []
    for _ in range(3):          # wall-clock noise: allow fresh measurements
        full_t = best_time(train)
        speedups = {d: full_t / best_time(refs[d]) for d in deltas}
        ok = all(1.0 / (2.0 * d) <= speedups[d] <= 2.0 / d for d in deltas)
        details = [f"{speedups[d]:.0f}x@{d}" for d in deltas]
        if ok:
            break
    report(8, "wall-clock speedup within 2x of 1/delta, distance counts "
              f"exact ({', '.join(details)})", ok and counts_ok)


# ---------------------------------------------------------------------------
# 9. Baseline properties
# ---------------------------------------------------------------------------

def _check_consistent(train, matrix, indices):
    """Each member's nearest among train.members[indices] has its label;
    matrix(queries, members) is the metric's distance matrix, one batch."""
    D = matrix(train.members, train.members[indices])
    nearest = np.asarray(indices)[np.argmin(D, axis=1)]
    return bool((train.labels[nearest] == train.labels).all())


def test_09_baseline_properties():
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # a centroid or barycenter that stops at its cap fails the criterion
        warnings.simplefilter("error", NoConvergence)
        for seed in range(20):
            # covariance instance
            train = gen_covariance_dataset(2, 8, 3, wishart_dof=15,
                                           separation=1.2, seed=seed)
            D = pairwise_distances(train.members, jbld)
            c = cnn_reduce(train, D, seed=seed)
            ok &= bool(c.consistent) and _check_consistent(
                train, spd.jbld_matrix, c.indices)
            r = rnn_reduce(c, train, D, seed=seed)
            ok &= set(r.indices) <= set(c.indices)
            ok &= _check_consistent(train, spd.jbld_matrix, r.indices)
            f = fcnn_reduce(train, D, jbld,
                            lambda ms: spd.jbld_centroid(ms, tol=1e-8))
            ok &= bool(f.consistent) and _check_consistent(
                train, spd.jbld_matrix, f.indices)

            # histogram instance
            htrain = gen_histogram_dataset(2, 8, 6, concentration=25.0,
                                           seed=seed)
            M = htrain.ground_metric
            lam = shc.default_lambda(M)
            hmetric = lambda a, b: sinkhorn(a, b, M, lam, tol=1e-6,
                                            max_iter=3000).distance
            hD = sinkhorn_pairwise(htrain.members, M, lam, 1e-6, 3000)
            hc = cnn_reduce(htrain, hD, seed=seed)
            ok &= bool(hc.consistent)
            ok &= _check_consistent(htrain, lambda Q, P: ot.sinkhorn_matrix(
                Q, P, M, lam, 1e-6, 3000)[0], hc.indices)
            hf = fcnn_reduce(
                htrain, hD, hmetric,
                lambda ms: ot.sinkhorn_barycenter(ms, M, lam, tol=1e-8,
                                                  max_iter=500))
            ok &= bool(hf.consistent)

            # RMHC: fixed size, error never increases along the trajectory
            start = rmhc_reduce(train, 4, D, steps=0, seed=seed)
            end = rmhc_reduce(train, 4, D, steps=40, seed=seed)
            ok &= len(end.indices) == 4

            def loo(idx):
                pred = train.labels[idx][np.argmin(D[:, idx], axis=1)]
                return float(np.mean(pred != train.labels))

            ok &= loo(end.indices) <= loo(start.indices)
    report(9, "CNN/FCNN consistency, RNN subset+consistency, RMHC size and "
              "monotone error (20 seeds x 2 families)", ok)


# ---------------------------------------------------------------------------
# 10. Structural preservation across optimizer iterations
# ---------------------------------------------------------------------------

def test_10_structural_preservation(cov_runs, hist_runs):
    ok = cov_runs["violations"] == 0 and hist_runs["violations"] == 0
    report(10, "every SCC iterate SPD and every SHC iterate on the simplex "
               f"({cov_runs['violations']} + {hist_runs['violations']} "
               "violations)", ok)


# ---------------------------------------------------------------------------
# 11. Determinism of bench runs
# ---------------------------------------------------------------------------

def test_11_bench_determinism(tmp_path):
    data_path = str(tmp_path / "data.json")
    rc = cli.main(["gen-cov", "--classes", "2", "--per-class", "20",
                   "--dim", "3", "--dof", "15", "--separation", "1.2",
                   "--seed", "0", "--out", data_path])
    assert rc == 0
    plan = {"ratios": [0.1, 0.2], "methods": ["subsample", "scc", "rmhc"],
            "seeds": [0, 1], "scc_max_iter": 10, "rmhc_steps": 20}
    plan_path = str(tmp_path / "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)

    def run(tag):
        out = str(tmp_path / f"records_{tag}.jsonl")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["bench", "--plan", plan_path, "--data", data_path,
                           "--out", out, "--deterministic"])
        assert rc == 0
        with open(out) as f:
            return [json.loads(line) for line in f]

    a, b = run("a"), run("b")
    ok = len(a) == len(b) > 0
    for ra, rb in zip(a, b):
        for key in ("method", "ratio", "seed", "m_actual", "error_rate",
                    "full_error_rate", "distance_evals"):
            ok &= ra[key] == rb[key]
    report(11, "repeated bench runs reproduce all error numbers bit-exactly",
           ok)
