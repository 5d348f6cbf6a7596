import numpy as np
import pytest

from knncompress import baselines as bl
from knncompress.datasets import LabeledDataset
from knncompress.datasets import stratified_indices
from knncompress.errors import (BadParameters, DimensionMismatch,
                                 InconsistentInput, NonFiniteInput,
                                 TooFewInputs)
from knncompress.knn import distance_matrix
from knncompress.scc import scc_init


def euclid(x, y):
    return float(np.linalg.norm(x - y))


def euclid_matrix(train):
    return np.array([[euclid(x, y) for y in train.members]
                     for x in train.members])


def mean_centroid(ms):
    return np.mean(ms, axis=0)


def blob_train(seed=0, classes=3, per_class=15, d=2, spread=0.4):
    # Gaussian blobs embedded as diagonal SPD matrices; the baselines are
    # metric-agnostic, so a plain Euclidean metric on the members is fine.
    rng = np.random.default_rng(seed)
    members, labels = [], []
    for c in range(classes):
        center = np.zeros(d)
        center[c % d] = 3.0 * (1 + c // d)
        for _ in range(per_class):
            x = center + spread * rng.standard_normal(d)
            members.append(np.diag(np.exp(x)))
            labels.append(c)
    return LabeledDataset(family="covariance", dim=d, members=members,
                          labels=np.array(labels), metadata={})


def one_nn_error(reference_idx, train):
    wrong = 0
    for i in range(len(train)):
        d = [euclid(train.members[i], train.members[j])
             for j in reference_idx]
        j = reference_idx[int(np.argmin(d))]
        if train.labels[j] != train.labels[i]:
            wrong += 1
    return wrong / len(train)


class TestSubsample:
    def test_size_and_stratification(self):
        train = blob_train()
        rs = bl.subsample(train, 6, seed=0)
        assert len(rs.indices) == 6
        assert sorted(rs.labels.tolist()) == [0, 0, 1, 1, 2, 2]

    def test_deterministic(self):
        train = blob_train()
        a = bl.subsample(train, 5, seed=3)
        b = bl.subsample(train, 5, seed=3)
        assert np.array_equal(a.indices, b.indices)

    def test_too_large(self):
        with pytest.raises(TooFewInputs):
            bl.subsample(blob_train(), 1000, seed=0)


class TestCnn:
    def test_consistent(self):
        train = blob_train(seed=1)
        rs = bl.cnn_reduce(train, euclid_matrix(train), seed=0)
        assert rs.consistent
        assert one_nn_error(rs.indices, train) == 0.0

    def test_smaller_than_train(self):
        train = blob_train(seed=2)
        rs = bl.cnn_reduce(train, euclid_matrix(train), seed=0)
        assert len(rs.indices) < len(train)

    def test_deterministic(self):
        train = blob_train(seed=3)
        D = euclid_matrix(train)
        a = bl.cnn_reduce(train, D, seed=5)
        b = bl.cnn_reduce(train, D, seed=5)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("method", ["cnn", "fcnn"])
    def test_snapshots_monotone(self, method):
        train = blob_train(seed=5, spread=1.2)
        D = euclid_matrix(train)
        ratios = (0.02, 0.05, 0.1)
        if method == "cnn":
            rs = bl.cnn_reduce(train, D, seed=0, snapshot_ratios=ratios)
        else:
            rs = bl.fcnn_reduce(train, D, euclid, mean_centroid,
                                snapshot_ratios=ratios)
        sizes = [len(rs.snapshots[r]) for r in ratios]
        assert sizes == sorted(sizes)
        for r in ratios:
            assert set(rs.snapshots[r]) <= set(rs.indices)


class TestRnn:
    def test_subset_of_cnn_and_consistent(self):
        train = blob_train(seed=6, spread=0.8)
        D = euclid_matrix(train)
        cnn = bl.cnn_reduce(train, D, seed=0)
        rnn = bl.rnn_reduce(cnn, train, D, seed=0)
        assert set(rnn.indices) <= set(cnn.indices)
        assert rnn.consistent
        assert one_nn_error(rnn.indices, train) == 0.0

    def test_one_member_is_kept(self):
        # one class: CNN keeps a single member, which RNN cannot drop
        train = blob_train(seed=6, classes=1)
        D = euclid_matrix(train)
        cnn = bl.cnn_reduce(train, D, seed=0)
        rnn = bl.rnn_reduce(cnn, train, D, seed=0)
        assert len(cnn.indices) == 1
        assert np.array_equal(rnn.indices, cnn.indices) and rnn.consistent

    def test_rejects_inconsistent_input(self):
        train = blob_train(seed=7)
        fake = bl.ReducedSet(indices=np.array([0]),
                             labels=train.labels[:1], consistent=False)
        with pytest.raises(InconsistentInput):
            bl.rnn_reduce(fake, train, euclid_matrix(train))

    @pytest.mark.parametrize("indices", [[0], []])
    def test_checks_consistency_not_the_flag(self, indices):
        # a set flagged consistent that does not classify a 2-class train
        # set is refused, not reduced further
        train = blob_train(seed=7, classes=2)
        flagged = bl.ReducedSet(indices=indices,
                                labels=train.labels[indices], consistent=True)
        with pytest.raises(InconsistentInput):
            bl.rnn_reduce(flagged, train, euclid_matrix(train))


class TestFcnn:
    def test_consistent(self):
        train = blob_train(seed=8, spread=0.9)
        rs = bl.fcnn_reduce(train, euclid_matrix(train), euclid,
                            mean_centroid)
        assert rs.consistent
        assert one_nn_error(rs.indices, train) == 0.0

    def test_seeds_one_per_class(self):
        train = blob_train(seed=9, spread=0.1)
        rs = bl.fcnn_reduce(train, euclid_matrix(train), euclid,
                            mean_centroid, snapshot_ratios=(0.02,))
        # well-separated tight blobs: the centroid seeds already suffice
        assert len(rs.indices) == train.n_classes

    def test_duplicate_with_other_label_stops_inconsistent(self):
        # both copies are seeds, and the one the tie gives to the other
        # copy's label is the only addition offered: nothing new to add
        X = np.diag([1.0, 2.0])
        train = LabeledDataset(family="covariance", dim=2, members=[X, X],
                               labels=np.array([0, 1]), metadata={})
        rs = bl.fcnn_reduce(train, euclid_matrix(train), euclid,
                            mean_centroid)
        assert rs.consistent is False
        assert np.array_equal(rs.indices, [0, 1])


class TestRmhc:
    def test_zero_steps_is_stratified_subsample(self):
        train = blob_train(seed=10)
        rs = bl.rmhc_reduce(train, 6, euclid_matrix(train), steps=0, seed=4)
        sub = bl.subsample(train, 6, seed=4)
        assert np.array_equal(np.sort(rs.indices), np.sort(sub.indices))

    def test_error_non_increasing(self):
        train = blob_train(seed=11, spread=1.5)
        D = euclid_matrix(train)
        start = bl.rmhc_reduce(train, 6, D, steps=0, seed=0)
        end = bl.rmhc_reduce(train, 6, D, steps=60, seed=0)
        assert one_nn_error(end.indices, train) \
            <= one_nn_error(start.indices, train)
        assert len(end.indices) == 6

    def test_m_above_n(self):
        train = blob_train(seed=12, per_class=2)
        with pytest.raises(TooFewInputs):
            bl.rmhc_reduce(train, 7, euclid_matrix(train), steps=5, seed=0)

    def test_deterministic(self):
        train = blob_train(seed=12, spread=1.0)
        D = euclid_matrix(train)
        a = bl.rmhc_reduce(train, 5, D, steps=30, seed=7)
        b = bl.rmhc_reduce(train, 5, D, steps=30, seed=7)
        assert np.array_equal(a.indices, b.indices)


# each baseline that reads the train-by-train matrix, called on (train, D)
READERS = {
    "cnn": lambda train, D: bl.cnn_reduce(train, D, seed=0),
    "rnn": lambda train, D: bl.rnn_reduce(
        bl.ReducedSet(indices=[0], labels=[0], consistent=True), train, D),
    "fcnn": lambda train, D: bl.fcnn_reduce(train, D, euclid, mean_centroid),
    "rmhc": lambda train, D: bl.rmhc_reduce(train, 1, D, steps=5, seed=0),
}


class TestEntryCheck:
    @pytest.mark.parametrize("method", sorted(READERS))
    def test_empty_train_set(self, method):
        empty = LabeledDataset(family="covariance", dim=2, members=[],
                               labels=np.array([], dtype=int), metadata={})
        with pytest.raises(TooFewInputs):
            READERS[method](empty, np.zeros((0, 0)))

    @pytest.mark.parametrize("method", sorted(READERS))
    @pytest.mark.parametrize("shape", [(13, 13), (10, 9), (10,)])
    def test_wrong_shape(self, method, shape):
        train = blob_train(per_class=4).subset(np.arange(10))
        with pytest.raises(DimensionMismatch):
            READERS[method](train, np.zeros(shape))

    @pytest.mark.parametrize("method", sorted(READERS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite(self, method, bad):
        train = blob_train(per_class=4).subset(np.arange(10))
        D = euclid_matrix(train)
        D[3, 7] = D[7, 3] = bad
        with pytest.raises(NonFiniteInput):
            READERS[method](train, D)


class TestBadCounts:
    # (call, bad value): a seed, m or step count that is negative or not an
    # integer is refused before any work, with the library's error
    CALLS = {
        "subsample-seed": lambda t, D, v: bl.subsample(t, 3, v),
        "subsample-m": lambda t, D, v: bl.subsample(t, v, 0),
        "cnn-seed": lambda t, D, v: bl.cnn_reduce(t, D, v),
        "rnn-seed": lambda t, D, v: bl.rnn_reduce(
            bl.cnn_reduce(t, D, 0), t, D, v),
        "rmhc-seed": lambda t, D, v: bl.rmhc_reduce(t, 3, D, 5, v),
        "rmhc-m": lambda t, D, v: bl.rmhc_reduce(t, v, D, 5, 0),
        "rmhc-steps": lambda t, D, v: bl.rmhc_reduce(t, 3, D, v, 0),
        "scc_init-seed": lambda t, D, v: scc_init(t, 3, v),
    }

    @pytest.mark.parametrize("value", [-1, 2.5])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call, value):
        train = blob_train(per_class=4)
        with pytest.raises(BadParameters, match="at least 0 and an integer"):
            self.CALLS[call](train, euclid_matrix(train), value)


# The full-scan baselines as they were before the nearest-member bookkeeping:
# every check re-derives each row's nearest selected member from D.

def ref_nearest(D, rows, candidates):
    return candidates[np.argmin(D[np.ix_(rows, candidates)], axis=1)]


def ref_wrong(D, labels, indices):
    return labels[ref_nearest(D, np.arange(len(labels)), indices)] != labels


def ref_snapshot(snapshots, ratios, size, n, indices):
    for r in ratios or ():
        if r not in snapshots and size >= max(1, round(r * n)):
            snapshots[r] = np.sort(np.asarray(indices, dtype=int)).copy()


def ref_cnn(train, D, seed, ratios):
    labels, n = train.labels, len(train)
    order = np.random.default_rng(seed).permutation(n)
    selected, snapshots = [int(order[0])], {}
    ref_snapshot(snapshots, ratios, 1, n, selected)
    changed = True
    while changed:
        changed = False
        cand = np.sort(np.array(selected))
        for i in order:
            i = int(i)
            if i in selected:
                continue
            if labels[ref_nearest(D, [i], cand)[0]] != labels[i]:
                selected.append(i)
                cand = np.sort(np.array(selected))
                changed = True
                ref_snapshot(snapshots, ratios, len(selected), n, selected)
    idx = np.sort(np.array(selected))
    ref_snapshot(snapshots, ratios, n, n, idx)
    return idx, not ref_wrong(D, labels, idx).any(), snapshots


def ref_rnn(indices, train, D, seed):
    labels, keep = train.labels, list(indices)
    for i in np.random.default_rng(seed).permutation(indices):
        if len(keep) <= 1:
            break
        trial = np.sort(np.array([j for j in keep if j != i]))
        if not ref_wrong(D, labels, trial).any():
            keep = list(trial)
    idx = np.sort(np.array(keep))
    return idx, not ref_wrong(D, labels, idx).any()


def ref_fcnn(train, D, ratios):
    labels, n = train.labels, len(train)
    selected = []
    for c in np.unique(labels):
        idx_c = np.where(labels == c)[0]
        cen = mean_centroid(train.members[idx_c])
        d = distance_matrix(train.members[idx_c], [cen], euclid)[:, 0]
        selected.append(int(idx_c[np.argmin(d)]))
    selected, snapshots = sorted(set(selected)), {}
    ref_snapshot(snapshots, ratios, len(selected), n, selected)
    while True:
        owner = ref_nearest(D, np.arange(n), np.array(selected))
        wrong = labels[owner] != labels
        if not wrong.any():
            break
        additions = set()
        for s in selected:
            cell = np.where((owner == s) & wrong)[0]
            if len(cell):
                additions.add(int(ref_nearest(D, [s], cell)[0]))
        additions -= set(selected)
        if not additions:
            break
        selected = sorted(set(selected) | additions)
        ref_snapshot(snapshots, ratios, len(selected), n, selected)
    idx = np.array(sorted(selected))
    ref_snapshot(snapshots, ratios, n, n, idx)
    return idx, not ref_wrong(D, labels, idx).any(), snapshots


def ref_rmhc(train, m, D, steps, seed):
    labels, n = train.labels, len(train)
    rng = np.random.default_rng(seed)
    selected = np.sort(stratified_indices(labels, m, rng))
    if m == n or steps < 1:
        return selected
    err = ref_wrong(D, labels, selected).mean()
    for _ in range(steps):
        out_pos = int(rng.integers(m))
        unselected = np.delete(np.arange(n), selected)
        new = int(unselected[rng.integers(len(unselected))])
        trial = selected.copy()
        trial[out_pos] = new
        trial = np.sort(trial)
        trial_err = ref_wrong(D, labels, trial).mean()
        if trial_err <= err:
            selected, err = trial, trial_err
    return selected


def tied_train(seed):
    """Members on a half-integer grid (many equidistant pairs) and a matrix
    rounded to one decimal; at even seeds member 1 is a copy of member 0
    with another label."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 60))
    X = np.round(4 * rng.standard_normal((n, 2))) / 2
    labels = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0)
    if seed % 2 == 0:
        X[1], labels[1] = X[0], (labels[0] + 1) % 3
    train = LabeledDataset(family="covariance", dim=2,
                           members=[np.diag(np.exp(x)) for x in X],
                           labels=labels, metadata={})
    return train, np.round(euclid_matrix(train), 1)


RATIOS = (0.02, 0.1, 0.3)


def assert_same(rs, train, indices, consistent=None, snapshots=None):
    assert np.array_equal(rs.indices, indices)
    assert np.array_equal(rs.labels, train.labels[indices])
    assert rs.consistent is consistent
    assert rs.snapshots.keys() == (snapshots or {}).keys()
    for r in rs.snapshots:
        assert np.array_equal(rs.snapshots[r], snapshots[r])


@pytest.mark.parametrize("seed", range(12))
class TestEqualsFullScan:
    def test_cnn_and_rnn(self, seed):
        train, D = tied_train(seed)
        idx, consistent, snaps = ref_cnn(train, D, seed, RATIOS)
        cnn = bl.cnn_reduce(train, D, seed, snapshot_ratios=RATIOS)
        assert_same(cnn, train, idx, consistent, snaps)
        if not consistent:  # the duplicate with another label
            with pytest.raises(InconsistentInput):
                bl.rnn_reduce(cnn, train, D, seed)
            return
        assert_same(bl.rnn_reduce(cnn, train, D, seed), train,
                    *ref_rnn(cnn.indices, train, D, seed))

    def test_fcnn(self, seed):
        train, D = tied_train(seed)
        rs = bl.fcnn_reduce(train, D, euclid, mean_centroid,
                            snapshot_ratios=RATIOS)
        assert_same(rs, train, *ref_fcnn(train, D, RATIOS))

    @pytest.mark.filterwarnings("ignore::knncompress.errors.ClassStarved")
    @pytest.mark.parametrize("steps", [0, 40])
    def test_rmhc(self, seed, steps):
        train, D = tied_train(seed)
        n = len(train)
        for m in sorted({1, 3, n // 3, n}):
            assert_same(bl.rmhc_reduce(train, m, D, steps, seed), train,
                        ref_rmhc(train, m, D, steps, seed))


def test_rmhc_rescans_only_rows_that_lose_their_nearest(monkeypatch):
    # each swap re-scans the rows whose nearest member was swapped out, so
    # the rows passed to _nearest per step stay far below n; a full scan
    # per step would pass n = 400
    rng = np.random.default_rng(0)
    n, steps = 400, 50
    X = rng.standard_normal((n, 2))
    train = LabeledDataset(family="covariance", dim=2,
                           members=[np.diag(np.exp(x)) for x in X],
                           labels=(X[:, 0] > 0).astype(int), metadata={})
    D = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
    scanned = []
    real = bl._nearest

    def spy(D, rows, candidates):
        scanned.append(len(rows))
        return real(D, rows, candidates)

    monkeypatch.setattr(bl, "_nearest", spy)
    rs = bl.rmhc_reduce(train, 40, D, steps, seed=0)
    assert np.array_equal(rs.indices, ref_rmhc(train, 40, D, steps, 0))
    assert scanned[0] == n and len(scanned) == steps + 1
    assert np.mean(scanned[1:]) < n / 10
