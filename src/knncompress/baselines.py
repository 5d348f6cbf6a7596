"""Instance-selection baselines for kNN training sets.

Stratified subsampling, Condensed NN, Reduced NN, Fast CNN (with a
pluggable class-centroid routine), and random-mutation hill climbing.
All are metric-agnostic: they see the training set's distances only
through one (n, n) train-by-train matrix D.  FCNN also takes the metric
and a class-centroid routine, for its member-to-centroid distances.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, stratified_indices
from .errors import (DimensionMismatch, InconsistentInput, NonFiniteInput,
                     TooFewInputs)
from .knn import distance_matrix


@dataclass
class ReducedSet:
    indices: np.ndarray
    labels: np.ndarray
    consistent: bool | None = None
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.labels = np.asarray(self.labels, dtype=int)


def _checked(train: LabeledDataset, D) -> np.ndarray:
    """D as a float array, once the training set is non-empty and D is a
    finite (n, n) matrix."""
    n = len(train)
    if n == 0:
        raise TooFewInputs("the training set is empty")
    D = np.asarray(D, dtype=float)
    if D.shape != (n, n):
        raise DimensionMismatch(
            f"distance matrix has shape {D.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(D)):
        raise NonFiniteInput("distance matrix has non-finite entries")
    return D


def _nearest(D: np.ndarray, rows, candidates: np.ndarray) -> np.ndarray:
    """Index (into the training set) of each row's nearest candidate.

    Equidistant ties go to the lowest training index; candidates are kept
    sorted so argmin's first-hit rule implements that.
    """
    return candidates[np.argmin(D[np.ix_(rows, candidates)], axis=1)]


def _one_nn_wrong(D: np.ndarray, labels: np.ndarray,
                  indices: np.ndarray) -> np.ndarray:
    """Which training points 1-NN on the reduced set misclassifies."""
    return labels[_nearest(D, np.arange(len(labels)), indices)] != labels


def _is_consistent(D: np.ndarray, labels: np.ndarray,
                   indices: np.ndarray) -> bool:
    """1-NN on the reduced set classifies every training point correctly."""
    return not _one_nn_wrong(D, labels, indices).any()


def _snapshot(snapshots: dict, ratios, size: int, n: int, indices) -> None:
    for r in ratios or ():
        if r not in snapshots and size >= max(1, round(r * n)):
            snapshots[r] = np.sort(np.asarray(indices, dtype=int)).copy()


def subsample(train: LabeledDataset, m: int, seed: int) -> ReducedSet:
    """Class-stratified random sample of size m."""
    if m > len(train):
        raise TooFewInputs(f"m={m} exceeds n={len(train)}")
    rng = np.random.default_rng(seed)
    idx = stratified_indices(train.labels, m, rng)
    return ReducedSet(indices=idx, labels=train.labels[idx])


def cnn_reduce(train: LabeledDataset, D: np.ndarray, seed: int,
               snapshot_ratios=None) -> ReducedSet:
    """Condensed nearest neighbor: grow a reference set until it classifies
    the whole training set, scanning in a seeded order with repeated passes."""
    D = _checked(train, D)
    labels = train.labels
    n = len(labels)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)

    selected = [int(order[0])]
    snapshots: dict[float, np.ndarray] = {}
    _snapshot(snapshots, snapshot_ratios, 1, n, selected)
    changed = True
    while changed:
        changed = False
        cand = np.sort(np.array(selected))
        for i in order:
            i = int(i)
            if i in selected:
                continue
            if labels[_nearest(D, [i], cand)[0]] != labels[i]:
                selected.append(i)
                cand = np.sort(np.array(selected))
                changed = True
                _snapshot(snapshots, snapshot_ratios, len(selected), n, selected)

    idx = np.sort(np.array(selected))
    _snapshot(snapshots, snapshot_ratios, n, n, idx)  # ratios not reached
    return ReducedSet(indices=idx, labels=labels[idx],
                      consistent=_is_consistent(D, labels, idx),
                      snapshots=snapshots)


def rnn_reduce(cnn_result: ReducedSet, train: LabeledDataset, D: np.ndarray,
               seed: int = 0) -> ReducedSet:
    """Reduced nearest neighbor: greedy deletion pass over the CNN output.

    Each member is tentatively dropped in a seeded random order; the drop is
    kept when training consistency survives.
    """
    D = _checked(train, D)
    if not cnn_result.consistent:
        raise InconsistentInput("rnn_reduce needs a consistent CNN result")
    labels = train.labels
    keep = list(cnn_result.indices)
    rng = np.random.default_rng(seed)
    for i in rng.permutation(cnn_result.indices):
        if len(keep) <= 1:
            break
        trial = np.sort(np.array([j for j in keep if j != i]))
        if _is_consistent(D, labels, trial):
            keep = list(trial)
    idx = np.sort(np.array(keep))
    return ReducedSet(indices=idx, labels=labels[idx],
                      consistent=_is_consistent(D, labels, idx))


def fcnn_reduce(train: LabeledDataset, D: np.ndarray, metric, centroid,
                snapshot_ratios=None) -> ReducedSet:
    """Fast CNN with a pluggable class-centroid routine.

    Seeds with each class's centroid-nearest member (under metric), then
    repeatedly adds, for every current member, the nearest misclassified
    training point in its Voronoi cell, until the set is training-consistent.
    """
    D = _checked(train, D)
    labels = train.labels
    n = len(labels)

    selected: list[int] = []
    for c in np.unique(labels):
        idx_c = np.where(labels == c)[0]
        cen = centroid(train.members[idx_c])
        d_to_cen = distance_matrix(train.members[idx_c], [cen], metric)[:, 0]
        selected.append(int(idx_c[np.argmin(d_to_cen)]))
    selected = sorted(set(selected))
    snapshots: dict[float, np.ndarray] = {}
    _snapshot(snapshots, snapshot_ratios, len(selected), n, selected)

    while True:
        owner = _nearest(D, np.arange(n), np.array(selected))
        wrong = labels[owner] != labels
        if not wrong.any():
            break
        additions = set()
        for s in selected:
            cell = np.where((owner == s) & wrong)[0]
            if len(cell) == 0:
                continue
            additions.add(int(_nearest(D, [s], cell)[0]))
        additions -= set(selected)
        if not additions:
            break
        selected = sorted(set(selected) | additions)
        _snapshot(snapshots, snapshot_ratios, len(selected), n, selected)

    idx = np.array(sorted(selected))
    _snapshot(snapshots, snapshot_ratios, n, n, idx)  # ratios not reached
    return ReducedSet(indices=idx, labels=labels[idx],
                      consistent=_is_consistent(D, labels, idx),
                      snapshots=snapshots)


def rmhc_reduce(train: LabeledDataset, m: int, D: np.ndarray, steps: int,
                seed: int) -> ReducedSet:
    """Random mutation hill climbing over size-m subsets.

    Starts from the stratified subsample; each step swaps one selected index
    for one unselected, keeping the swap iff the 1-NN training error does
    not increase.  The subset size is invariant.
    """
    D = _checked(train, D)
    labels = train.labels
    n = len(labels)
    if m > n:
        raise TooFewInputs(f"m={m} exceeds n={n}")
    rng = np.random.default_rng(seed)
    idx = stratified_indices(labels, m, rng)

    selected = np.sort(idx)
    if m == n or steps < 1:
        return ReducedSet(indices=selected, labels=labels[selected])
    err = _one_nn_wrong(D, labels, selected).mean()
    for _ in range(steps):
        out_pos = int(rng.integers(m))
        unselected = np.delete(np.arange(n), selected)  # sorted, unique
        new = int(unselected[rng.integers(len(unselected))])
        trial = selected.copy()
        trial[out_pos] = new
        trial = np.sort(trial)
        trial_err = _one_nn_wrong(D, labels, trial).mean()
        if trial_err <= err:
            selected, err = trial, trial_err
    return ReducedSet(indices=selected, labels=labels[selected])
