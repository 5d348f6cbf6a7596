"""Instance-selection baselines for kNN training sets.

Stratified subsampling, Condensed NN, Reduced NN, Fast CNN (with a
pluggable class-centroid routine), and random-mutation hill climbing.
All are metric-agnostic: they see descriptors only through a distance
callable, optionally short-circuited by a precomputed train-by-train
distance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, stratified_indices
from .errors import InconsistentInput, TooFewInputs
from .knn import distance_matrix


@dataclass
class ReducedSet:
    indices: np.ndarray
    labels: np.ndarray
    method: str
    consistent: bool | None = None
    snapshots: dict[float, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.labels = np.asarray(self.labels, dtype=int)


class _DistCache:
    """Memoized symmetric train-by-train distances behind metric(x, y)."""

    def __init__(self, members, metric, matrix: np.ndarray | None = None):
        self.members = members
        self.metric = metric
        self.matrix = matrix
        self._memo: dict[tuple[int, int], float] = {}

    def __call__(self, i: int, j: int) -> float:
        if i == j:
            return 0.0
        if self.matrix is not None:
            return float(self.matrix[i, j])
        key = (i, j) if i < j else (j, i)
        if key not in self._memo:
            self._memo[key] = float(self.metric(self.members[key[0]],
                                                self.members[key[1]]))
        return self._memo[key]

    def row(self, i: int, cols: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix[i, cols]
        return np.array([self(i, j) for j in cols])


def _nearest(dist: _DistCache, i: int, candidates: np.ndarray) -> int:
    """Index (into the training set) of i's nearest candidate.

    Equidistant ties go to the lowest training index; candidates are kept
    sorted so argmin's first-hit rule implements that.
    """
    d = dist.row(i, candidates)
    return int(candidates[np.argmin(d)])


def _is_consistent(dist: _DistCache, labels: np.ndarray,
                   indices: np.ndarray) -> bool:
    """1-NN on the reduced set classifies every training point correctly."""
    for i in range(len(labels)):
        if labels[_nearest(dist, i, indices)] != labels[i]:
            return False
    return True


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
    return ReducedSet(indices=idx, labels=train.labels[idx], method="subsample")


def cnn_reduce(train: LabeledDataset, metric, seed: int,
               dist_matrix: np.ndarray | None = None,
               snapshot_ratios=None) -> ReducedSet:
    """Condensed nearest neighbor: grow a reference set until it classifies
    the whole training set, scanning in a seeded order with repeated passes."""
    labels = train.labels
    n = len(labels)
    dist = _DistCache(train.members, metric, dist_matrix)
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
            if labels[_nearest(dist, i, cand)] != labels[i]:
                selected.append(i)
                cand = np.sort(np.array(selected))
                changed = True
                _snapshot(snapshots, snapshot_ratios, len(selected), n, selected)

    idx = np.sort(np.array(selected))
    _snapshot(snapshots, snapshot_ratios, n, n, idx)  # ratios not reached
    return ReducedSet(indices=idx, labels=labels[idx], method="cnn",
                      consistent=_is_consistent(dist, labels, idx),
                      snapshots=snapshots)


def rnn_reduce(cnn_result: ReducedSet, train: LabeledDataset, metric,
               seed: int = 0,
               dist_matrix: np.ndarray | None = None) -> ReducedSet:
    """Reduced nearest neighbor: greedy deletion pass over the CNN output.

    Each member is tentatively dropped in a seeded random order; the drop is
    kept when training consistency survives.
    """
    if not cnn_result.consistent:
        raise InconsistentInput("rnn_reduce needs a consistent CNN result")
    labels = train.labels
    dist = _DistCache(train.members, metric, dist_matrix)
    keep = list(cnn_result.indices)
    rng = np.random.default_rng(seed)
    for i in rng.permutation(cnn_result.indices):
        if len(keep) <= 1:
            break
        trial = np.sort(np.array([j for j in keep if j != i]))
        if _is_consistent(dist, labels, trial):
            keep = list(trial)
    idx = np.sort(np.array(keep))
    return ReducedSet(indices=idx, labels=labels[idx], method="rnn",
                      consistent=_is_consistent(dist, labels, idx))


def fcnn_reduce(train: LabeledDataset, metric, centroid,
                dist_matrix: np.ndarray | None = None,
                snapshot_ratios=None) -> ReducedSet:
    """Fast CNN with a pluggable class-centroid routine.

    Seeds with each class's centroid-nearest member, then repeatedly adds,
    for every current member, the nearest misclassified training point in
    its Voronoi cell, until the set is training-consistent.
    """
    labels = train.labels
    n = len(labels)
    dist = _DistCache(train.members, metric, dist_matrix)

    selected: list[int] = []
    for c in np.unique(labels):
        idx_c = np.where(labels == c)[0]
        cen = centroid([train.members[i] for i in idx_c])
        d_to_cen = distance_matrix([train.members[i] for i in idx_c], [cen],
                                   metric)[:, 0]
        selected.append(int(idx_c[np.argmin(d_to_cen)]))
    selected = sorted(set(selected))
    snapshots: dict[float, np.ndarray] = {}
    _snapshot(snapshots, snapshot_ratios, len(selected), n, selected)

    while True:
        cand = np.array(selected)
        owner = np.array([_nearest(dist, i, cand) for i in range(n)])
        wrong = labels[owner] != labels
        if not wrong.any():
            break
        additions = set()
        for s in selected:
            cell = np.where((owner == s) & wrong)[0]
            if len(cell) == 0:
                continue
            d = dist.row(s, cell)
            additions.add(int(cell[np.argmin(d)]))
        additions -= set(selected)
        if not additions:
            break
        selected = sorted(set(selected) | additions)
        _snapshot(snapshots, snapshot_ratios, len(selected), n, selected)

    idx = np.array(sorted(selected))
    _snapshot(snapshots, snapshot_ratios, n, n, idx)  # ratios not reached
    return ReducedSet(indices=idx, labels=labels[idx], method="fcnn",
                      consistent=_is_consistent(dist, labels, idx),
                      snapshots=snapshots)


def _one_nn_error(dist: _DistCache, labels: np.ndarray,
                  indices: np.ndarray) -> float:
    wrong = 0
    for i in range(len(labels)):
        if labels[_nearest(dist, i, indices)] != labels[i]:
            wrong += 1
    return wrong / len(labels)


def rmhc_reduce(train: LabeledDataset, m: int, metric, steps: int, seed: int,
                dist_matrix: np.ndarray | None = None) -> ReducedSet:
    """Random mutation hill climbing over size-m subsets.

    Starts from the stratified subsample; each step swaps one selected index
    for one unselected, keeping the swap iff the 1-NN training error does
    not increase.  The subset size is invariant.
    """
    labels = train.labels
    n = len(labels)
    if m > n:
        raise TooFewInputs(f"m={m} exceeds n={n}")
    rng = np.random.default_rng(seed)
    idx = stratified_indices(labels, m, rng)
    dist = _DistCache(train.members, metric, dist_matrix)

    selected = np.sort(idx)
    err = None
    for _ in range(steps):
        if m == n:
            break
        if err is None:
            err = _one_nn_error(dist, labels, selected)
        out_pos = int(rng.integers(m))
        unselected = np.setdiff1d(np.arange(n), selected, assume_unique=False)
        new = int(unselected[rng.integers(len(unselected))])
        trial = selected.copy()
        trial[out_pos] = new
        trial = np.sort(trial)
        trial_err = _one_nn_error(dist, labels, trial)
        if trial_err <= err:
            selected, err = trial, trial_err
    return ReducedSet(indices=selected, labels=labels[selected], method="rmhc")
