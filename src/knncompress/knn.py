"""Brute-force kNN classification, error measurement, and timing.

No acceleration structures: speedups come entirely from reference-set
shrinkage.  Distances are batched over the queries and looped over the
reference set, so their cost is linear in it, and wall time is measured
over that (median of three repetitions on a monotonic clock).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import EmptyReference, NumericalError, TooFewInputs


@dataclass
class EvalReport:
    error_rate: float
    n_test: int
    distance_evals: int
    wall_time: float
    speedup_vs_reference: float | None = None


def _vote(dists: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Majority vote among the k nearest.

    Distance ties break to the lowest index (stable argsort); vote ties
    break to the label of the nearest member carrying a tied-winning label.
    """
    order = np.argsort(dists, kind="stable")[:k]
    votes = labels[order]
    counts = np.bincount(votes)
    top = counts.max()
    winners = set(np.where(counts == top)[0])
    for lab in votes:  # ordered nearest-first
        if lab in winners:
            return int(lab)
    return int(votes[0])


def distance_matrix(queries, members, metric) -> np.ndarray:
    """(len(queries), len(members)) matrix of metric(query, member).

    Calls metric.matrix(queries, members) when the metric carries that
    batched form (both families' metrics from harness.make_metric do),
    else loops over the pairs.
    """
    batched = getattr(metric, "matrix", None)
    if batched is not None:
        return batched(queries, members)
    D = np.empty((len(queries), len(members)))
    for i, q in enumerate(queries):
        for j, x in enumerate(members):
            D[i, j] = metric(q, x)
    return D


def pairwise_distances(members, metric) -> np.ndarray:
    """Symmetric (n, n) matrix of metric(members[i], members[j]), zero on
    the diagonal.  Column j of the upper triangle is
    distance_matrix(members[:j], members[j:j+1], metric), so a per-pair
    metric is called for i < j only; the triangle is then mirrored."""
    members = np.asarray(members)
    n = len(members)
    D = np.zeros((n, n))
    for j in range(1, n):
        D[:j, j] = distance_matrix(members[:j], members[j:j + 1], metric)[:, 0]
    return D + D.T


def _predict(D: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """kNN labels of the rows of a query-by-reference distance matrix."""
    if not np.all(np.isfinite(D)):
        raise NumericalError("non-finite distance in the kNN distance matrix")
    if k == 1:  # argmin takes the first of tied minima, as _vote does
        return labels[np.argmin(D, axis=1)]
    return np.array([_vote(row, labels, k) for row in D], dtype=int)


def knn_classify(query, reference: LabeledDataset, metric, k: int = 1) -> int:
    """Majority-vote kNN label of a single query descriptor."""
    if len(reference) == 0:
        raise EmptyReference("empty reference set")
    k = min(k, len(reference))
    D = distance_matrix([query], reference.members, metric)
    return int(_predict(D, reference.labels, k)[0])


def evaluate(test: LabeledDataset, reference: LabeledDataset, metric,
             k: int = 1, reps: int = 3,
             reference_time: float | None = None) -> EvalReport:
    """Error rate plus timing of brute-force kNN over the reference set.

    Timing covers distance computation and voting only, median over reps;
    each rep computes the whole test-by-reference matrix afresh.
    distance_evals counts one full pass: n_test * len(reference).
    Raises NumericalError if a distance is not finite.
    """
    if len(reference) == 0:
        raise EmptyReference("empty reference set")
    k = min(k, len(reference))
    times = []
    preds = None
    for _ in range(reps):
        t0 = time.perf_counter()
        D = distance_matrix(test.members, reference.members, metric)
        preds = _predict(D, reference.labels, k)
        times.append(time.perf_counter() - t0)
    wall = float(np.median(times))
    err = float(np.mean(preds != test.labels))
    speedup = reference_time / wall if reference_time is not None else None
    return EvalReport(error_rate=err, n_test=len(test),
                      distance_evals=len(test) * len(reference),
                      wall_time=wall, speedup_vs_reference=speedup)


def loo_train_error(train: LabeledDataset, metric, k: int = 1,
                    dist_matrix: np.ndarray | None = None) -> float:
    """Leave-one-out kNN error over the training set (self excluded)."""
    n = len(train)
    if n < 2:
        raise TooFewInputs("leave-one-out needs at least 2 points")
    if dist_matrix is None:
        dist_matrix = pairwise_distances(train.members, metric)
    D = dist_matrix.astype(float).copy()
    np.fill_diagonal(D, np.inf)
    kk = min(k, n - 1)
    wrong = 0
    for i in range(n):
        if _vote(D[i], train.labels, kk) != train.labels[i]:
            wrong += 1
    return wrong / n
