import numpy as np
import pytest

from knncompress import baselines as bl
from knncompress.datasets import LabeledDataset
from knncompress.errors import InconsistentInput, TooFewInputs


def euclid(x, y):
    return float(np.linalg.norm(x - y))


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
        rs = bl.cnn_reduce(train, euclid, seed=0)
        assert rs.consistent
        assert one_nn_error(rs.indices, train) == 0.0

    def test_smaller_than_train(self):
        train = blob_train(seed=2)
        rs = bl.cnn_reduce(train, euclid, seed=0)
        assert len(rs.indices) < len(train)

    def test_deterministic(self):
        train = blob_train(seed=3)
        a = bl.cnn_reduce(train, euclid, seed=5)
        b = bl.cnn_reduce(train, euclid, seed=5)
        assert np.array_equal(a.indices, b.indices)

    def test_matrix_matches_metric(self):
        # each method picks the same members from the matrix as from the
        # metric's memo: one block accessor serves both
        train = blob_train(seed=4, per_class=8, spread=1.0)
        n = len(train)
        Dm = np.array([[euclid(train.members[i], train.members[j])
                        for j in range(n)] for i in range(n)])
        a = bl.cnn_reduce(train, euclid, seed=1)
        b = bl.cnn_reduce(train, None, seed=1, dist_matrix=Dm)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(bl.rnn_reduce(a, train, euclid).indices,
                              bl.rnn_reduce(b, train, None,
                                            dist_matrix=Dm).indices)

        def centroid(ms):
            return np.mean(ms, axis=0)

        assert np.array_equal(
            bl.fcnn_reduce(train, euclid, centroid).indices,
            bl.fcnn_reduce(train, euclid, centroid, dist_matrix=Dm).indices)
        assert np.array_equal(
            bl.rmhc_reduce(train, 5, euclid, steps=30, seed=2).indices,
            bl.rmhc_reduce(train, 5, None, steps=30, seed=2,
                           dist_matrix=Dm).indices)

    def test_snapshots_monotone(self):
        train = blob_train(seed=5, spread=1.2)
        ratios = (0.02, 0.05, 0.1)
        rs = bl.cnn_reduce(train, euclid, seed=0, snapshot_ratios=ratios)
        sizes = [len(rs.snapshots[r]) for r in ratios]
        assert sizes == sorted(sizes)
        for r in ratios:
            assert set(rs.snapshots[r]) <= set(rs.indices)


class TestRnn:
    def test_subset_of_cnn_and_consistent(self):
        train = blob_train(seed=6, spread=0.8)
        cnn = bl.cnn_reduce(train, euclid, seed=0)
        rnn = bl.rnn_reduce(cnn, train, euclid, seed=0)
        assert set(rnn.indices) <= set(cnn.indices)
        assert rnn.consistent
        assert one_nn_error(rnn.indices, train) == 0.0

    def test_rejects_inconsistent_input(self):
        train = blob_train(seed=7)
        fake = bl.ReducedSet(indices=np.array([0]),
                             labels=train.labels[:1], method="cnn",
                             consistent=False)
        with pytest.raises(InconsistentInput):
            bl.rnn_reduce(fake, train, euclid)


class TestFcnn:
    def test_consistent(self):
        train = blob_train(seed=8, spread=0.9)

        def centroid(ms):
            return np.mean(ms, axis=0)

        rs = bl.fcnn_reduce(train, euclid, centroid)
        assert rs.consistent
        assert one_nn_error(rs.indices, train) == 0.0

    def test_seeds_one_per_class(self):
        train = blob_train(seed=9, spread=0.1)

        def centroid(ms):
            return np.mean(ms, axis=0)

        rs = bl.fcnn_reduce(train, euclid, centroid,
                            snapshot_ratios=(0.02,))
        # well-separated tight blobs: the centroid seeds already suffice
        assert len(rs.indices) == train.n_classes


class TestRmhc:
    def test_zero_steps_is_stratified_subsample(self):
        train = blob_train(seed=10)
        rs = bl.rmhc_reduce(train, 6, metric=None, steps=0, seed=4)
        sub = bl.subsample(train, 6, seed=4)
        assert np.array_equal(np.sort(rs.indices), np.sort(sub.indices))

    def test_error_non_increasing(self):
        train = blob_train(seed=11, spread=1.5)
        start = bl.rmhc_reduce(train, 6, euclid, steps=0, seed=0)
        end = bl.rmhc_reduce(train, 6, euclid, steps=60, seed=0)
        assert one_nn_error(end.indices, train) \
            <= one_nn_error(start.indices, train)
        assert len(end.indices) == 6

    def test_deterministic(self):
        train = blob_train(seed=12, spread=1.0)
        a = bl.rmhc_reduce(train, 5, euclid, steps=30, seed=7)
        b = bl.rmhc_reduce(train, 5, euclid, steps=30, seed=7)
        assert np.array_equal(a.indices, b.indices)
