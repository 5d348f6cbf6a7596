import numpy as np
import pytest

from knncompress import baselines as bl
from knncompress.datasets import LabeledDataset
from knncompress.errors import (DimensionMismatch, InconsistentInput,
                                 NonFiniteInput, TooFewInputs)


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
