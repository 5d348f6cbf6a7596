"""Command-line interface.

Subcommands: gen-cov, gen-hist, compress, eval, bench, selfcheck.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, ot, spd
# unused here, but profilers (perfbench/tracer.py) wrap these names on cli
from .baselines import (  # noqa: F401
    cnn_reduce, fcnn_reduce, rmhc_reduce, rnn_reduce, subsample)
from .datasets import (
    gen_covariance_dataset,
    gen_histogram_dataset,
    load_dataset,
    save_dataset,
)
from .errors import NumericalError, ValidationError
from .harness import (
    COMPRESSORS,
    ExperimentPlan,
    compress,
    make_metric,
    run_experiment,
    summary_table,
)
from .knn import evaluate

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="knncompress",
        description="Compress kNN training sets of covariance and histogram "
                    "descriptors.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-cov", help="generate a synthetic covariance dataset")
    g.add_argument("--classes", type=int, default=3)
    g.add_argument("--per-class", type=int, default=100)
    g.add_argument("--dim", type=int, default=5)
    g.add_argument("--dof", type=int, default=30)
    g.add_argument("--separation", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    g = sub.add_parser("gen-hist", help="generate a synthetic histogram dataset")
    g.add_argument("--classes", type=int, default=3)
    g.add_argument("--per-class", type=int, default=100)
    g.add_argument("--dim", type=int, default=20)
    g.add_argument("--concentration", type=float, default=50.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    g = sub.add_parser("compress", help="compress a dataset to m prototypes")
    g.add_argument("--method", required=True, choices=list(COMPRESSORS))
    g.add_argument("--ratio", type=float, default=0.08,
                   help="m = round(ratio * n); cnn, fcnn: snapshot at m")
    g.add_argument("--gamma-sq", type=float, default=None)
    g.add_argument("--lambda", dest="lam", type=float, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--max-iter", type=int, default=100)
    g.add_argument("--rmhc-steps", type=int, default=100)
    g.add_argument("--in", dest="inp", required=True)
    g.add_argument("--out", required=True)

    g = sub.add_parser("eval", help="kNN error of a test set vs a reference set")
    g.add_argument("--reference", required=True)
    g.add_argument("--test", required=True)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--lambda", dest="lam", type=float, default=None)
    g.add_argument("--json", action="store_true")

    g = sub.add_parser("bench", help="run an experiment plan")
    g.add_argument("--plan", required=True)
    g.add_argument("--data", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--deterministic", action="store_true",
                   help="no-op: runs are always sequential and bit-exact")

    sub.add_parser("selfcheck", help="run the built-in oracle suite")
    return p


def _cmd_gen_cov(args) -> int:
    ds = gen_covariance_dataset(args.classes, args.per_class, args.dim,
                                args.dof, args.separation, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} covariance descriptors (d={ds.dim}) to {args.out}")
    return 0


def _cmd_gen_hist(args) -> int:
    ds = gen_histogram_dataset(args.classes, args.per_class, args.dim,
                               args.concentration, args.seed)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} histograms (d={ds.dim}) to {args.out}")
    return 0


def _cmd_compress(args) -> int:
    train = load_dataset(args.inp)
    plan = ExperimentPlan(
        ratios=(args.ratio,), methods=(args.method,), seeds=(args.seed,),
        gamma_sq=args.gamma_sq, lam=args.lam, scc_max_iter=args.max_iter,
        shc_max_iter=args.max_iter, rmhc_steps=args.rmhc_steps)
    out = compress(args.method, train, args.ratio, args.seed, plan)
    save_dataset(out, args.out)
    print(f"{args.method}: {len(train)} -> {len(out)} members, wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    reference = load_dataset(args.reference)
    test = load_dataset(args.test)
    if reference.family != test.family:
        raise ValidationError("reference and test families differ")
    metric, _ = make_metric(reference, args.lam)
    rep = evaluate(test, reference, metric, k=args.k)
    doc = {"error_rate": rep.error_rate, "n_test": rep.n_test,
           "distance_evals": rep.distance_evals, "wall_time": rep.wall_time}
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"error_rate={rep.error_rate:.4f}  n_test={rep.n_test}  "
              f"distance_evals={rep.distance_evals}  "
              f"wall_time={rep.wall_time:.3f}s")
    return 0


def _cmd_bench(args) -> int:
    with open(args.plan) as f:
        plan = ExperimentPlan.from_dict(json.load(f))
    dataset = load_dataset(args.data)
    records = run_experiment(plan, dataset, out_path=args.out, progress=True)
    print(summary_table(records))
    return 0


def _cmd_selfcheck(_args) -> int:
    """Fast oracle checks: each line prints PASS/FAIL."""
    rng = np.random.default_rng(7)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1

    A = rng.standard_normal((4, 4))
    X = A @ A.T + 4 * np.eye(4)
    B = spd.cholesky(X)
    check("cholesky reconstruction",
          np.linalg.norm(B.T @ B - X) <= 1e-10 * np.linalg.norm(X))
    check("jbld identity", abs(spd.jbld(X, X)) < 1e-12)
    check("airm identity", abs(spd.airm(X, X)) < 1e-12)
    stack = [X, B.T @ B + np.eye(4), A.T @ A + 0.5 * np.eye(4)]
    check("jbld_matrix equals per-pair jbld",
          np.array_equal(spd.jbld_matrix(stack, stack[:2]),
                         [[spd.jbld(x, y) for y in stack[:2]] for x in stack]))

    G = spd.jbld_gradient_chol(X, B + 0.1 * np.triu(rng.standard_normal((4, 4))))
    check("jbld gradient finite", np.all(np.isfinite(G)))

    d = 8
    M = np.abs(np.subtract.outer(np.arange(d), np.arange(d))).astype(float)
    h = rng.dirichlet(np.ones(d))
    hp = rng.dirichlet(np.ones(d))
    emd = ot.emd_exact(h, hp, M)
    cdf = np.abs(np.cumsum(h) - np.cumsum(hp))[:-1].sum()
    check("emd matches CDF closed form", abs(emd - cdf) < 1e-10)
    sol = ot.sinkhorn(h, hp, M, lam=200.0)
    check("sinkhorn upper-bounds emd", sol.distance >= emd - 1e-6)
    check("sinkhorn close to emd at lam=200",
          (sol.distance - emd) / max(emd, 1e-6) < 0.05)
    # exp(-lam*M) underflows at lam=200 (log domain), not at lam=50
    H, hp, M = rng.dirichlet(np.ones(5), size=2), hp[:5] / hp[:5].sum(), M[:5, :5]
    check("sinkhorn_batch equals per-pair sinkhorn", all(np.allclose(
        ot.sinkhorn_batch(H, hp, M, lam)[0],
        [ot.sinkhorn(x, hp, M, lam).distance for x in H], rtol=0, atol=1e-8)
        for lam in (50.0, 200.0)))
    return 0 if failures == 0 else EXIT_NUMERICAL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "gen-cov": _cmd_gen_cov,
        "gen-hist": _cmd_gen_hist,
        "compress": _cmd_compress,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
