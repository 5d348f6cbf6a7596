"""Brute-force kNN classification, error measurement, and timing.

No acceleration structures: speedups come entirely from reference-set
shrinkage.  Distances are batched (JBLD in blocks of reference members,
Sinkhorn over all query-reference pairs at once, each pair stopping as it
would alone), so their cost is linear in the reference set, and wall time
is measured over that (median of three repetitions on a monotonic clock).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .errors import BadParameters, EmptyInput, EmptyReference, NumericalError


@dataclass
class EvalReport:
    error_rate: float
    n_test: int
    distance_evals: int
    wall_time: float
    speedup_vs_reference: float | None = None
    unconverged: int = 0  # unconverged pairs in the last distance matrix


def _vote(dists: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Majority vote among the k nearest.

    Distance ties break to the lowest index (stable argsort); vote ties
    break to the label of the nearest member carrying a tied-winning label.
    """
    order = np.argsort(dists, kind="stable")[:k]
    votes = labels[order]
    # np.unique, not np.bincount, whose size is the largest label's
    values, counts = np.unique(votes, return_counts=True)
    winners = set(values[counts == counts.max()].tolist())
    return next(lab for lab in votes.tolist() if lab in winners)  # nearest-first


def distance_matrix(queries, members, metric) -> np.ndarray:
    """(len(queries), len(members)) matrix of metric(query, member).

    Calls metric.matrix(queries, members) when the metric carries that
    batched form (both families' metrics from harness.make_metric do),
    else loops over the pairs.
    """
    return _distances(queries, members, metric)[0]


def _distances(queries, members, metric):
    """distance_matrix's matrix and its number of unconverged pairs.

    metric.matrix may return the matrix alone, or with a boolean matrix of
    the pairs whose solver converged, as the Sinkhorn metric of
    harness.make_metric does; a matrix alone or the pair loop counts none.
    """
    batched = getattr(metric, "matrix", None)
    if batched is not None:
        D = batched(queries, members)
        if isinstance(D, tuple):
            D, converged = D
            return D, int(np.count_nonzero(~converged))
        return D, 0
    D = np.empty((len(queries), len(members)))
    for i, q in enumerate(queries):
        for j, x in enumerate(members):
            D[i, j] = metric(q, x)
    return D, 0


def pairwise_distances(members, metric) -> np.ndarray:
    """Symmetric (n, n) matrix of metric(members[i], members[j]), zero on
    the diagonal: metric.pairwise(members) when the metric carries that
    train-by-train form (both families' metrics from harness.make_metric
    do), else a per-pair metric called once for each i < j, mirrored."""
    if hasattr(metric, "pairwise"):
        return metric.pairwise(members)
    D = np.zeros((len(members), len(members)))
    for i, j in zip(*np.triu_indices(len(members), 1)):
        D[i, j] = D[j, i] = metric(members[i], members[j])
    return D


def _cap_k(k: int, n: int) -> int:
    """k capped at n members; BadParameters for k below 1."""
    if k < 1:
        raise BadParameters(f"k={k} must be at least 1")
    return min(k, n)


def _predict(D: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """kNN labels of the rows of a query-by-reference distance matrix."""
    if not (np.isfinite(D).all() and (D >= -1e-9).all()):  # rounding: > -1e-9
        raise NumericalError("non-finite or negative distance in the kNN "
                             "distance matrix")
    if k == 1:  # argmin takes the first of tied minima, as _vote does
        return labels[np.argmin(D, axis=1)]
    return np.array([_vote(row, labels, k) for row in D], dtype=int)


def evaluate(test: LabeledDataset, reference: LabeledDataset, metric,
             k: int = 1, reps: int = 3,
             reference_time: float | None = None) -> EvalReport:
    """Error rate plus timing of brute-force kNN over the reference set.

    Timing covers distance computation and voting only, median over reps;
    each rep computes the whole test-by-reference matrix afresh.
    distance_evals counts one full pass: n_test * len(reference), and
    unconverged the pairs of the last pass whose solver did not converge.
    Raises NumericalError if a distance is not finite or is negative
    beyond rounding.
    """
    if len(reference) == 0:
        raise EmptyReference("empty reference set")
    if len(test) == 0:  # no error rate to report
        raise EmptyInput("empty test set")
    if reps < 1:
        raise BadParameters(f"reps={reps} must be at least 1")
    k = _cap_k(k, len(reference))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        D, unconverged = _distances(test.members, reference.members, metric)
        preds = _predict(D, reference.labels, k)
        times.append(time.perf_counter() - t0)
    wall = float(np.median(times))
    err = float(np.mean(preds != test.labels))
    speedup = reference_time / wall if reference_time is not None else None
    return EvalReport(error_rate=err, n_test=len(test),
                      distance_evals=len(test) * len(reference),
                      wall_time=wall, speedup_vs_reference=speedup,
                      unconverged=unconverged)
