import numpy as np
import pytest

from knncompress import harness, knn, ot, spd
from knncompress.datasets import (
    LabeledDataset, gen_covariance_dataset, gen_histogram_dataset)
from knncompress.errors import (
    BadParameters, EmptyReference, NumericalError)


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

    def test_label_far_beyond_count(self):
        # a count array indexed by label would need 2**62 entries
        d = np.array([0.1, 0.2, 0.3])
        assert knn._vote(d, np.array([2**62, 0, 2**62]), k=3) == 2**62


class TestClassify:
    # evaluate on a one-query test set
    def test_nearest_neighbor(self):
        ref = make_ds([1.0, 2.0, 10.0], [0, 0, 1])
        assert knn.evaluate(make_ds([9.0], [1]), ref, euclid,
                            reps=1).error_rate == 0.0
        assert knn.evaluate(make_ds([1.4], [0]), ref, euclid,
                            reps=1).error_rate == 0.0

    def test_k_clamped_to_reference(self):
        # k=10 over two members is a vote tie, which the nearest wins
        ref = make_ds([1.0, 2.0], [0, 1])
        assert knn.evaluate(make_ds([1.1], [0]), ref, euclid, k=10,
                            reps=1).error_rate == 0.0
        assert knn.evaluate(make_ds([1.9], [1]), ref, euclid, k=10,
                            reps=1).error_rate == 0.0

    def test_empty_reference(self):
        ref = make_ds([1.0], [0]).subset(np.array([], dtype=int))
        with pytest.raises(EmptyReference):
            knn.evaluate(make_ds([1.0], [0]), ref, euclid)


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

    def test_zero_reps_rejected(self):
        ref = make_ds([1.0, 10.0], [0, 1])
        with pytest.raises(BadParameters, match="reps"):
            knn.evaluate(make_ds([1.5], [0]), ref, euclid, reps=0)


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

    def test_negative_distance_raises(self):
        # a distance below rounding would read as the nearest member
        def metric(x, y):
            return -0.2 if x[0, 0] == 9.0 else float(abs(x - y).sum())

        ref = make_ds([1.0, 10.0], [0, 1])
        test = make_ds([1.5, 9.0], [0, 1])
        with pytest.raises(NumericalError, match="negative"):
            knn.evaluate(test, ref, metric, reps=1)


class TestSinkhornMetric:
    def test_one_batch_per_repetition(self, monkeypatch):
        # each repetition is one batch over every test-by-reference pair,
        # each pair leaving it when it converges: the cost stays the sum
        # over n_test * len(reference) pairs, linear in the reference set
        data = gen_histogram_dataset(2, 6, 8, concentration=20.0, seed=3)
        ref, test = data.subset([0, 5, 6]), data.subset(range(1, 5))
        metric, _ = harness.make_metric(data, 2.0)
        batches, sinkhorn_batch = [], ot.sinkhorn_batch

        def counting(*args, pairs, **kwargs):
            batches.append(len(pairs[0]))
            return sinkhorn_batch(*args, pairs=pairs, **kwargs)

        def per_pair(*args, **kwargs):
            raise AssertionError("per-pair sinkhorn called")

        monkeypatch.setattr(ot, "sinkhorn_batch", counting)
        monkeypatch.setattr(ot, "sinkhorn", per_pair)
        rep = knn.evaluate(test, ref, metric, reps=2)
        assert batches == [len(test) * len(ref)] * 2
        assert rep.distance_evals == len(test) * len(ref)

    def test_pairwise_one_batch_over_the_triangle(self, monkeypatch):
        # the train-by-train matrix is one ot.sinkhorn_pairwise solve
        data = gen_histogram_dataset(2, 4, 8, concentration=20.0, seed=5)
        metric, _ = harness.make_metric(data, 2.0)
        batches, sinkhorn_batch = [], ot.sinkhorn_batch

        def counting(*args, pairs, **kwargs):
            batches.append(len(pairs[0]))
            return sinkhorn_batch(*args, pairs=pairs, **kwargs)

        monkeypatch.setattr(ot, "sinkhorn_batch", counting)
        knn.pairwise_distances(data.members, metric)
        assert batches == [len(data) * (len(data) - 1) // 2]

    @pytest.mark.parametrize("max_iter", [2000, 200])
    def test_evaluate_counts_unconverged_pairs(self, hist_tight, max_iter):
        queries, reference = hist_tight
        metric, _ = harness.make_metric(reference, 200.0,
                                        sinkhorn_max_iter=max_iter)
        rep = knn.evaluate(queries, reference, metric, reps=1)
        _, conv = ot.sinkhorn_matrix(queries.members, reference.members,
                                     reference.ground_metric, 200.0, 1e-6,
                                     max_iter)
        assert rep.unconverged == (~conv).sum()
        assert rep.unconverged > 0 or max_iter == 2000

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
        # both take members[i] as the first marginal of the pair i < j
        data = gen_histogram_dataset(2, 4, 8, concentration=20.0, seed=5)
        metric, lam = harness.make_metric(data, 2.0)
        M, n = data.ground_metric, len(data)
        want = np.array([[ot.sinkhorn(data.members[min(i, j)],
                                      data.members[max(i, j)], M, lam,
                                      tol=1e-6, max_iter=2000).distance
                          if i != j else 0.0 for j in range(n)]
                         for i in range(n)])
        for D in (knn.pairwise_distances(data.members, metric),
                  ot.sinkhorn_pairwise(np.stack(data.members), M, lam,
                                       tol=1e-6, max_iter=2000)):
            np.testing.assert_allclose(D, want, rtol=1e-12)
