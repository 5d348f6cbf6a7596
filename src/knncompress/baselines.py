"""Instance-selection baselines for kNN training sets.

Stratified subsampling, Condensed NN, Reduced NN, Fast CNN (with a
pluggable class-centroid routine), and random-mutation hill climbing.
All are metric-agnostic: they see the training set's distances only
through one (n, n) train-by-train matrix D.  FCNN also takes the metric
and a class-centroid routine, for its member-to-centroid distances.

Each run keeps one array, every training point's nearest selected member
(the lowest index on a tie), and updates it per change: an added member
is compared with each row's nearest in O(n), and only the rows that lose
their nearest member are re-scanned.  Selections are those of a full
n x |S| rescan after every change.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset, stratified_indices
from .errors import (DimensionMismatch, InconsistentInput, NonFiniteInput,
                     TooFewInputs)
from .knn import distance_matrix
from .neighborhood import check_counts


@dataclass
class ReducedSet:
    """Sorted training indices; joined[k] counts the members selected before
    the step that added indices[k], so indices[joined < m] is the set held
    on first reaching m members (or all of it, if it never did)."""
    indices: np.ndarray
    consistent: bool | None = None
    joined: np.ndarray | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=int)
        self.joined = (np.zeros(len(self.indices), dtype=int)
                       if self.joined is None else np.asarray(self.joined))


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
    return candidates[np.argmin(D[np.asarray(rows)[:, None], candidates],
                                axis=1)]


def _admit(D: np.ndarray, nn: np.ndarray, j: int) -> None:
    """Update nn, each row's nearest member, in place for a new member j,
    under _nearest's rule: j takes the rows it is nearer to, or as near to
    with a lower index."""
    new, old = D[:, j], D[np.arange(len(nn)), nn]
    nn[(new < old) | ((new == old) & (j < nn))] = j


def subsample(train: LabeledDataset, m: int, seed: int) -> ReducedSet:
    """Class-stratified random sample of size m."""
    check_counts(m=m, seed=seed)
    rng = np.random.default_rng(seed)
    idx = stratified_indices(train.labels, m, rng)
    return ReducedSet(indices=idx)


def cnn_reduce(train: LabeledDataset, D: np.ndarray, seed: int) -> ReducedSet:
    """Condensed nearest neighbor: grow a reference set until it classifies
    the whole training set, scanning in a seeded order with repeated passes."""
    check_counts(seed=seed)
    D = _checked(train, D)
    labels = train.labels
    n = len(labels)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)

    selected = [int(order[0])]
    nn = np.full(n, selected[0])
    changed = True
    while changed:
        changed = False
        for i in order:
            if labels[nn[i]] != labels[i] and i not in selected:
                selected.append(int(i))
                _admit(D, nn, i)
                changed = True

    return ReducedSet(indices=np.sort(selected),
                      consistent=bool(np.all(labels[nn] == labels)),
                      joined=np.argsort(selected))


def rnn_reduce(cnn_result: ReducedSet, train: LabeledDataset, D: np.ndarray,
               seed: int = 0) -> ReducedSet:
    """Reduced nearest neighbor: greedy deletion pass over the CNN output.

    Each member is tentatively dropped in a seeded random order; the drop is
    kept when training consistency survives.  Only the rows whose nearest
    member is the one dropped can change, so only they are re-scanned.
    """
    check_counts(seed=seed)
    D = _checked(train, D)
    labels = train.labels
    keep = np.unique(cnn_result.indices)
    if not (cnn_result.consistent and len(keep)):
        raise InconsistentInput("rnn_reduce needs a consistent CNN result")
    nn = _nearest(D, np.arange(len(labels)), keep)
    if np.any(labels[nn] != labels):
        raise InconsistentInput(
            "the CNN result flagged consistent misclassifies training points")
    rng = np.random.default_rng(seed)
    for i in rng.permutation(cnn_result.indices):
        if len(keep) <= 1:
            break
        rows = np.flatnonzero(nn == i)
        trial = keep[keep != i]
        moved = _nearest(D, rows, trial)
        if np.all(labels[moved] == labels[rows]):
            keep, nn[rows] = trial, moved
    return ReducedSet(indices=keep,
                      consistent=bool(np.all(labels[nn] == labels)))


def fcnn_reduce(train: LabeledDataset, D: np.ndarray, metric,
                centroid) -> ReducedSet:
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
    joined = dict.fromkeys(sorted(set(selected)), 0)  # member -> its joined

    owner = _nearest(D, np.arange(n), np.array(list(joined)))
    while True:
        wrong = np.flatnonzero(labels[owner] != labels)
        if len(wrong) == 0:
            break
        # for each member, the nearest misclassified point in its cell
        cells = owner[wrong]
        additions = {int(_nearest(D, [s], wrong[cells == s])[0])
                     for s in np.unique(cells)} - joined.keys()
        if not additions:
            break
        joined.update(dict.fromkeys(additions, len(joined)))
        for j in additions:
            _admit(D, owner, j)

    idx = np.array(sorted(joined))
    return ReducedSet(indices=idx,
                      consistent=bool(np.all(labels[owner] == labels)),
                      joined=np.array([joined[i] for i in idx]))


def rmhc_reduce(train: LabeledDataset, m: int, D: np.ndarray, steps: int,
                seed: int) -> ReducedSet:
    """Random mutation hill climbing over size-m subsets.

    Starts from the stratified subsample; each step swaps one selected index
    for one unselected, keeping the swap iff the 1-NN training error does
    not increase.  The subset size is invariant.
    """
    check_counts(m=m, steps=steps, seed=seed)
    D = _checked(train, D)
    labels = train.labels
    n = len(labels)
    rng = np.random.default_rng(seed)
    idx = stratified_indices(labels, m, rng)

    selected = np.sort(idx)
    if m == n or steps < 1:
        return ReducedSet(indices=selected)
    nn = _nearest(D, np.arange(n), selected)
    wrong = np.count_nonzero(labels[nn] != labels)
    unselected = np.delete(np.arange(n), selected)  # sorted, unique
    for _ in range(steps):
        out_pos = int(rng.integers(m))
        k = rng.integers(len(unselected))
        new = int(unselected[k])
        trial = selected.copy()
        trial[out_pos] = new
        trial = np.sort(trial)
        # rows that lose their nearest member are re-scanned; the rest
        # only compare it with the new one
        rows = np.flatnonzero(nn == selected[out_pos])
        trial_nn = nn.copy()
        _admit(D, trial_nn, new)
        trial_nn[rows] = _nearest(D, rows, trial)
        trial_wrong = np.count_nonzero(labels[trial_nn] != labels)
        if trial_wrong <= wrong:  # counts order as error rates at fixed n
            unselected[k] = selected[out_pos]
            unselected.sort()
            selected, nn, wrong = trial, trial_nn, trial_wrong
    return ReducedSet(indices=selected)
