import numpy as np
import pytest

from knncompress import datasets as ds
from knncompress.errors import (
    BadParameters,
    ClassStarved,
    DimensionMismatch,
    InfeasibleMarginals,
    NonFiniteInput,
    TooFewFeatures,
    TooFewInputs,
    ValidationError,
)


class TestLabeledDataset:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ds.LabeledDataset(family="covariance", dim=2,
                              members=[np.eye(2)], labels=np.array([0, 1]),
                              metadata={})

    def test_histogram_needs_metric(self):
        with pytest.raises(ValidationError):
            ds.LabeledDataset(family="histogram", dim=2,
                              members=[np.array([0.5, 0.5])],
                              labels=np.array([0]), metadata={})

    def test_non_finite_member(self):
        X = np.eye(2)
        X[0, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            ds.LabeledDataset(family="covariance", dim=2,
                              members=[np.eye(2), X], labels=np.array([0, 1]))

    def test_non_finite_ground_metric(self):
        M = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(NonFiniteInput):
            ds.LabeledDataset(family="histogram", dim=2,
                              members=[np.array([0.5, 0.5])],
                              labels=np.array([0]), ground_metric=M)

    @pytest.mark.parametrize("member", [[0.6, 0.6], [1.2, -0.2],
                                        [0.5, 0.5 + 1e-8]])
    def test_histogram_off_simplex(self, member):
        M = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InfeasibleMarginals):
            ds.LabeledDataset(family="histogram", dim=2,
                              members=[np.array([0.5, 0.5]),
                                       np.array(member)],
                              labels=np.array([0, 1]), ground_metric=M)

    def test_asymmetric_ground_metric(self):
        M = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InfeasibleMarginals):
            ds.LabeledDataset(family="histogram", dim=2,
                              members=[np.array([0.5, 0.5])],
                              labels=np.array([0]), ground_metric=M)

    def test_subset(self):
        data = ds.gen_covariance_dataset(2, 5, 3, wishart_dof=10,
                                         separation=1.0, seed=0)
        sub = data.subset(np.array([0, 5, 9]))
        assert len(sub) == 3
        assert np.array_equal(sub.labels, data.labels[[0, 5, 9]])
        assert np.array_equal(sub.members[1], data.members[5])


class TestStratifiedIndices:
    def test_exact_m_and_coverage(self):
        rng = np.random.default_rng(0)
        labels = np.array([0] * 10 + [1] * 10 + [2] * 10)
        idx = ds.stratified_indices(labels, 6, rng)
        assert len(idx) == 6
        assert sorted(labels[idx].tolist()) == [0, 0, 1, 1, 2, 2]

    def test_min_one_per_class(self):
        rng = np.random.default_rng(1)
        labels = np.array([0] * 50 + [1] * 2 + [2] * 48)
        idx = ds.stratified_indices(labels, 5, rng)
        assert set(labels[idx]) == {0, 1, 2}

    def test_class_starved_warning(self):
        rng = np.random.default_rng(2)
        labels = np.array([0, 0, 0, 1, 1, 2])
        with pytest.warns(ClassStarved):
            idx = ds.stratified_indices(labels, 2, rng)
        assert len(idx) == 2

    def test_relabeling_invariance(self):
        labels = np.array([0] * 8 + [1] * 12 + [2] * 6)
        perm = {0: 5, 1: 3, 2: 9}
        relabeled = np.array([perm[c] for c in labels])
        a = ds.stratified_indices(labels, 7, np.random.default_rng(9))
        b = ds.stratified_indices(relabeled, 7, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_bad_m(self):
        rng = np.random.default_rng(3)
        with pytest.raises(TooFewInputs):
            ds.stratified_indices(np.array([0, 1]), 3, rng)


class TestDescriptors:
    def test_covariance_normalization(self):
        rng = np.random.default_rng(0)
        F = rng.standard_normal((50, 3))
        C = ds.covariance_descriptor(F)
        assert np.allclose(C, np.cov(F, rowvar=False))
        np.linalg.cholesky(C)

    def test_covariance_degenerate_jittered(self):
        F = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
        C = ds.covariance_descriptor(F)
        np.linalg.cholesky(C)  # must not raise

    def test_covariance_too_few(self):
        with pytest.raises(TooFewFeatures):
            ds.covariance_descriptor(np.ones((1, 3)))

    def test_bow_histogram(self):
        cb = np.array([[0.0], [10.0]])
        F = np.array([[0.1], [0.2], [9.9]])
        h = ds.bow_histogram(F, cb)
        assert np.allclose(h, [2 / 3, 1 / 3])

    def test_bow_tie_lowest_index(self):
        cb = np.array([[0.0], [2.0]])
        h = ds.bow_histogram(np.array([[1.0]]), cb)
        assert np.allclose(h, [1.0, 0.0])


class TestGenerators:
    def test_covariance_shapes_spd(self):
        data = ds.gen_covariance_dataset(3, 4, 5, wishart_dof=20,
                                         separation=1.5, seed=7)
        assert len(data) == 12
        assert data.family == "covariance"
        assert sorted(set(data.labels)) == [0, 1, 2]
        for X in data.members:
            assert X.shape == (5, 5)
            np.linalg.cholesky(X)

    def test_covariance_deterministic(self):
        a = ds.gen_covariance_dataset(2, 3, 4, 15, 1.0, seed=3)
        b = ds.gen_covariance_dataset(2, 3, 4, 15, 1.0, seed=3)
        for X, Y in zip(a.members, b.members):
            assert np.array_equal(X, Y)

    def test_covariance_bad_params(self):
        with pytest.raises(BadParameters):
            ds.gen_covariance_dataset(2, 3, 5, wishart_dof=3,
                                      separation=1.0, seed=0)

    def test_histogram_shapes_simplex(self):
        data = ds.gen_histogram_dataset(3, 4, 10, concentration=50.0, seed=5)
        assert len(data) == 12
        assert data.family == "histogram"
        assert data.ground_metric.shape == (10, 10)
        assert np.allclose(data.ground_metric, data.ground_metric.T)
        assert np.allclose(np.diag(data.ground_metric), 0.0)
        for h in data.members:
            assert h.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(h >= 0)

    def test_histogram_deterministic(self):
        a = ds.gen_histogram_dataset(2, 3, 6, 30.0, seed=11)
        b = ds.gen_histogram_dataset(2, 3, 6, 30.0, seed=11)
        for x, y in zip(a.members, b.members):
            assert np.array_equal(x, y)
        assert np.array_equal(a.ground_metric, b.ground_metric)

    def test_separation_helps(self):
        from knncompress.knn import loo_train_error
        from knncompress.spd import jbld
        near = ds.gen_covariance_dataset(3, 10, 4, 30, separation=0.05,
                                         seed=1)
        far = ds.gen_covariance_dataset(3, 10, 4, 30, separation=3.0, seed=1)
        assert loo_train_error(far, jbld) <= loo_train_error(near, jbld)


class TestRoundTrip:
    def test_covariance_bit_exact(self, tmp_path):
        data = ds.gen_covariance_dataset(2, 5, 4, 20, 1.5, seed=13)
        p = str(tmp_path / "cov.json")
        ds.save_dataset(data, p)
        back = ds.load_dataset(p)
        assert back.family == data.family
        assert back.dim == data.dim
        assert np.array_equal(back.labels, data.labels)
        for X, Y in zip(back.members, data.members):
            assert np.array_equal(X, Y)  # float repr round-trips exactly

    def test_histogram_bit_exact(self, tmp_path):
        data = ds.gen_histogram_dataset(3, 4, 8, 40.0, seed=17)
        p = str(tmp_path / "hist.json")
        ds.save_dataset(data, p)
        back = ds.load_dataset(p)
        assert np.array_equal(back.ground_metric, data.ground_metric)
        for x, y in zip(back.members, data.members):
            assert np.array_equal(x, y)
        assert back.metadata == data.metadata
