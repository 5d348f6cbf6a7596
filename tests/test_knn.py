import numpy as np
import pytest

from knncompress import harness, knn, ot, spd
from knncompress.datasets import (
    LabeledDataset, gen_covariance_dataset, gen_histogram_dataset)
from knncompress.errors import EmptyReference, NumericalError, TooFewInputs


def euclid(x, y):
    return float(np.linalg.norm(x - y))


def spd_points(values):
    """1x1 SPD members from positive scalars."""
    return [np.array([[v]]) for v in values]


def make_ds(values, labels):
    return LabeledDataset(family="covariance", dim=1,
                          members=spd_points(values),
                          labels=np.array(labels), metadata={})


class TestVote:
    def test_plain_majority(self):
        d = np.array([0.1, 0.2, 0.3])
        assert knn._vote(d, np.array([1, 1, 0]), k=3) == 1

    def test_distance_tie_lowest_index(self):
        d = np.array([0.5, 0.5, 0.9])
        assert knn._vote(d, np.array([2, 7, 7]), k=1) == 2

    def test_vote_tie_nearest_wins(self):
        d = np.array([0.1, 0.2, 0.3, 0.4])
        labels = np.array([0, 1, 1, 0])
        # two votes each; label 0 owns the overall nearest member
        assert knn._vote(d, labels, k=4) == 0


class TestClassify:
    def test_nearest_neighbor(self):
        ref = make_ds([1.0, 2.0, 10.0], [0, 0, 1])
        assert knn.knn_classify(np.array([[9.0]]), ref, euclid, k=1) == 1
        assert knn.knn_classify(np.array([[1.4]]), ref, euclid, k=1) == 0

    def test_k_clamped_to_reference(self):
        ref = make_ds([1.0, 2.0], [0, 1])
        assert knn.knn_classify(np.array([[1.1]]), ref, euclid, k=10) == 0

    def test_empty_reference(self):
        ref = make_ds([1.0], [0]).subset(np.array([], dtype=int))
        with pytest.raises(EmptyReference):
            knn.knn_classify(np.array([[1.0]]), ref, euclid)


class TestEvaluate:
    def test_error_rate_and_counts(self):
        ref = make_ds([1.0, 10.0], [0, 1])
        test = make_ds([1.5, 9.0, 2.0], [0, 1, 1])  # last one is wrong
        rep = knn.evaluate(test, ref, euclid, k=1)
        assert rep.error_rate == pytest.approx(1.0 / 3.0)
        assert rep.n_test == 3
        assert rep.distance_evals == 6
        assert rep.wall_time > 0

    def test_speedup_field(self):
        ref = make_ds([1.0, 10.0], [0, 1])
        test = make_ds([1.5], [0])
        rep = knn.evaluate(test, ref, euclid, reference_time=1.0)
        assert rep.speedup_vs_reference == pytest.approx(1.0 / rep.wall_time)

    def test_perfect_reference(self):
        rng = np.random.default_rng(0)
        vals0 = 1.0 + 0.1 * rng.random(10)
        vals1 = 10.0 + 0.1 * rng.random(10)
        ref = make_ds(np.r_[vals0[:5], vals1[:5]], [0] * 5 + [1] * 5)
        test = make_ds(np.r_[vals0[5:], vals1[5:]], [0] * 5 + [1] * 5)
        assert knn.evaluate(test, ref, euclid).error_rate == 0.0


class TestLooError:
    def test_self_excluded(self):
        # each point's nearest other neighbor has the opposite label
        ds = make_ds([1.0, 1.1, 5.0, 5.1], [0, 1, 0, 1])
        assert knn.loo_train_error(ds, euclid, k=1) == 1.0

    def test_separable(self):
        ds = make_ds([1.0, 1.1, 1.2, 9.0, 9.1, 9.2], [0, 0, 0, 1, 1, 1])
        assert knn.loo_train_error(ds, euclid, k=1) == 0.0

    def test_matrix_matches_metric(self):
        rng = np.random.default_rng(1)
        vals = 1.0 + rng.random(8)
        ds = make_ds(vals, rng.integers(0, 2, 8))
        n = len(ds)
        D = np.array([[euclid(ds.members[i], ds.members[j])
                       for j in range(n)] for i in range(n)])
        assert knn.loo_train_error(ds, euclid) \
            == knn.loo_train_error(ds, None, dist_matrix=D)

    def test_too_few(self):
        with pytest.raises(TooFewInputs):
            knn.loo_train_error(make_ds([1.0], [0]), euclid)


def per_pair(metric):
    """metric without its batched form, so knn loops over pairs."""
    return lambda x, y: metric(x, y)


class TestBatched:
    def setup_method(self):
        data = gen_covariance_dataset(3, 14, 4, wishart_dof=6,
                                      separation=0.5, seed=4)
        self.ref = data.subset(np.arange(0, len(data), 2))
        self.test = data.subset(np.arange(1, len(data), 2))

    def test_distance_matrix_uses_matrix_form(self):
        calls = []

        def metric(x, y):
            return 0.0

        def matrix(A, B):
            calls.append((len(A), len(B)))
            return np.zeros((len(A), len(B)))

        metric.matrix = matrix
        D = knn.distance_matrix(self.test.members, self.ref.members, metric)
        assert D.shape == (len(self.test), len(self.ref))
        assert calls == [(len(self.test), len(self.ref))]

    def test_distance_matrix_equals_pair_loop(self):
        assert np.array_equal(
            knn.distance_matrix(self.test.members, self.ref.members, spd.jbld),
            knn.distance_matrix(self.test.members, self.ref.members,
                                per_pair(spd.jbld)))

    @pytest.mark.parametrize("k", [1, 3])
    def test_evaluate_predictions_match_vote(self, k):
        # per query, the old path: jbld over the reference, then _vote
        expected = [knn._vote(np.array([spd.jbld(q, x)
                                        for x in self.ref.members]),
                              self.ref.labels, k)
                    for q in self.test.members]
        err = float(np.mean(np.array(expected) != self.test.labels))
        rep = knn.evaluate(self.test, self.ref, spd.jbld, k=k, reps=1)
        assert rep.error_rate == err
        assert rep.error_rate == knn.evaluate(
            self.test, self.ref, per_pair(spd.jbld), k=k, reps=1).error_rate
        for q, lab in zip(self.test.members, expected):
            assert knn.knn_classify(q, self.ref, spd.jbld, k=k) == lab

    def test_pairwise_symmetric_zero_diagonal(self):
        D = knn.pairwise_distances(self.ref.members, spd.jbld)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        assert np.array_equal(
            D, knn.pairwise_distances(self.ref.members, per_pair(spd.jbld)))

    def test_per_pair_metric_called_once_per_pair(self):
        calls = []

        def counting(x, y):
            calls.append(1)
            return spd.jbld(x, y)

        n = len(self.ref.members)
        knn.pairwise_distances(self.ref.members, counting)
        assert len(calls) == n * (n - 1) // 2

    def test_non_finite_distance_raises(self):
        def metric(x, y):
            return np.nan if x[0, 0] == 9.0 else float(abs(x - y).sum())

        ref = make_ds([1.0, 10.0], [0, 1])
        test = make_ds([1.5, 9.0], [0, 1])
        with pytest.raises(NumericalError):
            knn.evaluate(test, ref, metric, reps=1)


class TestSinkhornMetric:
    def test_one_batch_per_reference_member(self, monkeypatch):
        # the query axis is batched, the reference set looped over: the
        # cost stays linear in the reference set
        data = gen_histogram_dataset(2, 6, 8, concentration=20.0, seed=3)
        ref, test = data.subset([0, 5, 6]), data.subset(range(1, 5))
        metric, _ = harness.make_metric(data, 2.0)
        batches, sinkhorn_batch = [], ot.sinkhorn_batch

        def counting(H, *args, **kwargs):
            batches.append(len(H))
            return sinkhorn_batch(H, *args, **kwargs)

        def per_pair(*args, **kwargs):
            raise AssertionError("per-pair sinkhorn called")

        monkeypatch.setattr(ot, "sinkhorn_batch", counting)
        monkeypatch.setattr(ot, "sinkhorn", per_pair)
        rep = knn.evaluate(test, ref, metric, reps=1)
        assert batches == [len(test)] * len(ref)
        assert rep.distance_evals == len(test) * len(ref)

    def test_pairwise_symmetric_and_equal_to_pair_loop(self):
        data = gen_histogram_dataset(2, 3, 8, concentration=20.0, seed=3)
        metric, _ = harness.make_metric(data, 2.0)
        D = knn.pairwise_distances(data.members, metric)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)
        np.testing.assert_allclose(
            D, knn.pairwise_distances(data.members, per_pair(metric)),
            rtol=1e-12)

    def test_pairwise_equals_sinkhorn_pairwise(self):
        data = gen_histogram_dataset(2, 4, 8, concentration=20.0, seed=5)
        metric, lam = harness.make_metric(data, 2.0)
        want = ot.sinkhorn_pairwise(np.stack(data.members),
                                    data.ground_metric, lam, tol=1e-6,
                                    max_iter=2000)
        assert np.array_equal(knn.pairwise_distances(data.members, metric),
                              want)
