import json

import numpy as np
import pytest

from knncompress import datasets as ds
from knncompress.spd import check_spd
from knncompress.errors import (
    BadParameters,
    ClassStarved,
    DimensionMismatch,
    InconsistentInput,
    InfeasibleMarginals,
    NonFiniteInput,
    NotPositiveDefinite,
    NotSpdInput,
    TooFewInputs,
    ValidationError,
)


class TestLabeledDataset:
    def test_unknown_family(self):
        with pytest.raises(ValidationError, match="unknown family"):
            ds.LabeledDataset(family="graph", dim=2, members=[np.eye(2)],
                              labels=np.array([0]))

    def test_ragged_members(self):
        with pytest.raises(DimensionMismatch, match="one shape"):
            ds.LabeledDataset(family="covariance", dim=2,
                              members=[np.eye(2), np.eye(3)],
                              labels=np.array([0, 1]))

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

    def test_asymmetric_covariance_member(self):
        # a member whose upper triangle moved: the Cholesky would read
        # only the lower one, so the answer would be for another matrix
        X = np.eye(3) + 0.5 + np.triu(np.full((3, 3), 5.0), 1)
        with pytest.raises(InconsistentInput):
            ds.LabeledDataset(family="covariance", dim=3,
                              members=[np.eye(3), X], labels=np.array([0, 1]))

    def test_symmetric_within_tolerance_accepted(self):
        X = np.eye(3) * 1e3
        X[0, 1] += 1e-7  # 1e-10 of max|X|
        data = ds.LabeledDataset(family="covariance", dim=3, members=[X],
                                 labels=np.array([0]))
        assert len(data) == 1

    def test_covariance_member_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            ds.LabeledDataset(family="covariance", dim=3,
                              members=[np.eye(2)], labels=np.array([0]))

    def test_histogram_members_not_dim_wide(self):
        with pytest.raises(DimensionMismatch):
            ds.LabeledDataset(family="histogram", dim=5,
                              members=[np.full(20, 0.05)],
                              labels=np.array([0]),
                              ground_metric=1.0 - np.eye(5))

    def test_ground_metric_not_dim_square(self):
        with pytest.raises(DimensionMismatch):
            ds.LabeledDataset(family="histogram", dim=20,
                              members=[np.full(20, 0.05)],
                              labels=np.array([0]),
                              ground_metric=1.0 - np.eye(3))

    def test_indefinite_covariance_member(self):
        with pytest.raises(NotSpdInput):
            ds.LabeledDataset(family="covariance", dim=2,
                              members=[np.eye(2), -np.eye(2)],
                              labels=np.array([0, 1]))

    def test_singular_member_rejected(self):
        # PSD but singular: plain Cholesky fails, and no jitter rescues it
        with pytest.raises(NotSpdInput):
            ds.LabeledDataset(family="covariance", dim=3,
                              members=[np.eye(3), np.ones((3, 3))],
                              labels=np.array([0, 1]))

    def test_member_only_lapack_factors_rejected(self):
        # rank one: LAPACK's Cholesky passes it on a rounding pivot, the
        # stack-last kernel that JBLD runs does not
        a = float(np.float32(3.4723482)) ** 2
        with pytest.raises(NotSpdInput):
            ds.LabeledDataset(family="covariance", dim=2,
                              members=[np.eye(2), np.full((2, 2), a)],
                              labels=np.array([0, 1]))

    @pytest.mark.parametrize("family", ["covariance", "histogram"])
    def test_negative_label(self, family):
        member = np.eye(2) if family == "covariance" else np.full(2, 0.5)
        with pytest.raises(ValidationError, match="labels"):
            ds.LabeledDataset(family=family, dim=2, members=[member] * 2,
                              labels=np.array([0, -1]),
                              ground_metric=1.0 - np.eye(2))

    @pytest.mark.parametrize("labels", [[0.5, 1.7], ["a", "b"], [[0], [1]],
                                        [0, [1, 2]]])
    def test_labels_not_integers(self, labels):
        with pytest.raises(ValidationError, match="labels"):
            ds.LabeledDataset(family="covariance", dim=2,
                              members=[np.eye(2)] * 2, labels=labels)

    @pytest.mark.parametrize("field, value, message", [
        ("dim", True, "dim must be at least 1"),
        ("dim", 0, "dim must be at least 1"),
        ("dim", 2.0, "dim must be at least 1"),
        ("metadata", None, "metadata must be a dict"),
        ("metadata", [("name", "x")], "metadata must be a dict")])
    def test_bad_dim_or_metadata(self, field, value, message):
        fields = dict(family="covariance", dim=1, members=[[[1.0]]],
                      labels=[0], metadata={})
        with pytest.raises(ValidationError, match=message):
            ds.LabeledDataset(**{**fields, field: value})

    def test_subset(self):
        data = ds.gen_covariance_dataset(2, 5, 3, wishart_dof=10,
                                         separation=1.0, seed=0)
        sub = data.subset(np.array([0, 5, 9]))
        assert len(sub) == 3
        assert np.array_equal(sub.labels, data.labels[[0, 5, 9]])
        assert np.array_equal(sub.members[1], data.members[5])


class TestStackedMembers:
    """members is one float stack however it was given."""

    @pytest.mark.parametrize("family", ["covariance", "histogram"])
    def test_array_members_equal_list_members(self, family):
        data = (ds.gen_covariance_dataset(2, 3, 3, 6, 1.0, seed=0)
                if family == "covariance"
                else ds.gen_histogram_dataset(2, 3, 4, 40.0, seed=0))
        built = [ds.LabeledDataset(family=family, dim=data.dim,
                                   members=members, labels=data.labels,
                                   ground_metric=data.ground_metric)
                 for members in (list(data.members), data.members.copy())]
        shape = (6,) + (data.dim,) * (1 if family == "histogram" else 2)
        for b in built:
            assert isinstance(b.members, np.ndarray)
            assert b.members.dtype == float and b.members.shape == shape
        assert np.array_equal(built[0].members, built[1].members)

    @pytest.mark.parametrize("family", ["covariance", "histogram"])
    def test_subset_and_load_return_stacks(self, family, tmp_path):
        data = (ds.gen_covariance_dataset(2, 3, 3, 6, 1.0, seed=0)
                if family == "covariance"
                else ds.gen_histogram_dataset(2, 3, 4, 40.0, seed=0))
        p = str(tmp_path / "data.json")
        ds.save_dataset(data, p)
        sub = data.subset([4, 1])
        for got, want in ((sub, data.members[[4, 1]]),
                          (ds.load_dataset(p), data.members)):
            assert isinstance(got.members, np.ndarray)
            assert np.array_equal(got.members, want)

    def test_empty_set_keeps_trailing_shape(self):
        cov = ds.LabeledDataset(family="covariance", dim=3, members=[],
                                labels=[])
        hist = ds.LabeledDataset(family="histogram", dim=4, members=[],
                                 labels=[], ground_metric=1.0 - np.eye(4))
        assert cov.members.shape == (0, 3, 3)
        assert hist.members.shape == (0, 4)
        data = ds.gen_covariance_dataset(2, 3, 3, 6, 1.0, seed=0)
        assert data.subset([]).members.shape == (0, 3, 3)


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

    def test_over_allocation_trimmed_to_one_per_class(self):
        # the floor of one per class gives 6 + 4 = 10 > m: the large
        # class is cut back until every class has one member
        labels = np.array([0, 1, 2, 3, 4, 5] + [6] * 10)
        idx = ds.stratified_indices(labels, 7, np.random.default_rng(4))
        assert sorted(labels[idx].tolist()) == list(range(7))


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

    @pytest.mark.parametrize("concentration", [np.nan, np.inf])
    def test_histogram_concentration_checked(self, concentration):
        # rejected at the parameter, not later as non-finite members
        with pytest.raises(BadParameters, match="concentration"):
            ds.gen_histogram_dataset(2, 3, 4, concentration, seed=0)

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

    # the generators draw each class as one stack; these per-member loops
    # consume the generator's stream in the same order and are the reference
    @staticmethod
    def covariance_reference(classes, per_class, d, dof, separation, seed,
                             repair=True):
        rng = np.random.default_rng(seed)
        members, labels = [], []
        for c in range(classes):
            G = rng.standard_normal((d, d))
            S = (G + G.T) / (2.0 * np.sqrt(d))
            w, V = np.linalg.eigh(separation * S)
            P = (V * np.exp(w)) @ V.T
            L = np.linalg.cholesky(0.5 * (P + P.T))
            for _ in range(per_class):
                Z = L @ rng.standard_normal((d, dof))
                X = Z @ Z.T / dof
                X = 0.5 * (X + X.T)
                try:
                    check_spd(X[None])
                except NotPositiveDefinite:
                    if repair:
                        X = X + 1e-10 * np.trace(X) / d * np.eye(d)
                members.append(X)
                labels.append(c)
        return np.array(members), np.array(labels)

    @staticmethod
    def histogram_reference(classes, per_class, d, concentration, seed):
        rng = np.random.default_rng(seed)
        embed = rng.standard_normal((d, 3))
        M = np.sqrt(((embed[:, None] - embed[None]) ** 2).sum(axis=2))
        np.fill_diagonal(M, 0.0)
        members, labels = [], []
        for c in range(classes):
            alpha = np.maximum(concentration * rng.dirichlet(np.ones(d)), 1e-3)
            for _ in range(per_class):
                h = np.maximum(rng.dirichlet(alpha), 0.0)
                members.append(h / h.sum())
                labels.append(c)
        return np.array(members), np.array(labels), M

    # the benchmark workloads' calls (generator seed 2), a draw with a
    # member that fails plain Cholesky, then small shapes
    REPAIRED = (1, 1468, 20, 20, 1.0, 80)
    COV_CALLS = [(3, 200, 5, 8, 1.0, 2), (3, 100, 5, 8, 1.0, 2), REPAIRED] + [
        shape + (seed,) for seed in range(5)
        for shape in [(2, 3, 2, 2, 1.0), (3, 4, 3, 6, 0.0), (2, 5, 4, 4, 2.5),
                      (1, 1, 1, 1, 1.0)]]
    HIST_CALLS = [(3, 200, 20, 5.0, 2)] + [
        shape + (seed,) for seed in range(5)
        for shape in [(2, 3, 2, 40.0), (3, 4, 6, 0.01), (2, 5, 8, 300.0),
                      (1, 1, 3, 1.0)]]

    @pytest.mark.parametrize("call", COV_CALLS, ids=str)
    def test_covariance_equals_per_member_draw(self, call):
        members, labels = self.covariance_reference(*call)
        data = ds.gen_covariance_dataset(*call)
        assert np.array_equal(data.members, members)
        assert np.array_equal(data.labels, labels)

    def test_covariance_ridge_only_on_failing_members(self):
        raw, _ = self.covariance_reference(*self.REPAIRED, repair=False)
        failing = []
        for i, X in enumerate(raw):
            try:
                check_spd(X[None])
            except NotPositiveDefinite:
                failing.append(i)
        assert failing  # member 1467: eigenvalues 2e-16 to 5.1
        data = ds.gen_covariance_dataset(*self.REPAIRED)
        changed = (data.members != raw).any(axis=(1, 2))
        assert np.flatnonzero(changed).tolist() == failing

    @pytest.mark.parametrize("call", [COV_CALLS[0], REPAIRED], ids=str)
    def test_covariance_members_checked_once(self, call, monkeypatch):
        # the dataset's own check; the ridge's per-member checks and a
        # second build only for a draw that fails it
        sizes = []
        monkeypatch.setattr(ds, "check_spd",
                            lambda S: sizes.append(len(S)) or check_spd(S))
        data = ds.gen_covariance_dataset(*call)
        n = len(data)
        assert sizes == ([n] if call != self.REPAIRED
                         else [n] + [1] * n + [n])

    @pytest.mark.parametrize("call", HIST_CALLS, ids=str)
    def test_histogram_equals_per_member_draw(self, call):
        members, labels, M = self.histogram_reference(*call)
        data = ds.gen_histogram_dataset(*call)
        assert np.array_equal(data.members, members)
        assert np.array_equal(data.labels, labels)
        assert np.array_equal(data.ground_metric, M)

    def test_separation_helps(self):
        from knncompress.harness import split_dataset
        from knncompress.knn import evaluate
        from knncompress.spd import jbld

        def held_out_error(separation):
            data = ds.gen_covariance_dataset(3, 10, 4, 30, separation, seed=1)
            train, test = split_dataset(data, 0)
            return evaluate(test, train, jbld, reps=1).error_rate

        assert held_out_error(3.0) < held_out_error(0.05)


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

    @pytest.mark.parametrize("family", ["covariance", "histogram"])
    def test_golden_file(self, family, tmp_path):
        # the exact text of a file: members as flat row-major lists
        if family == "covariance":
            members = [[[2.0, 0.5], [0.5, 1.0]], [[1.0, 0.0], [0.0, 3.0]]]
            gm, want_m, want_gm = None, ("[[2.0, 0.5, 0.5, 1.0], "
                                         "[1.0, 0.0, 0.0, 3.0]]"), "null"
        else:
            members = [[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]]
            gm = np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0)))
            want_m = "[[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]]"
            want_gm = "[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]"
        data = ds.LabeledDataset(family=family, dim=len(members[0]),
                                 members=members, labels=[1, 0],
                                 ground_metric=gm,
                                 metadata={"name": "golden", "seed": 3})
        p = tmp_path / "golden.json"
        ds.save_dataset(data, str(p))
        assert p.read_text() == (
            f'{{"family": "{family}", "dim": {data.dim}, "n": 2, '
            '"classes": 2, "metadata": {"name": "golden", "seed": 3}, '
            f'"labels": [1, 0], "members": {want_m}, '
            f'"ground_metric": {want_gm}}}\n')

    @pytest.mark.parametrize("dim, metric", [
        (np.int64(2), [[0, 1], [1, 0]]), (2, ((0.0, 1.0), (1.0, 0.0)))])
    def test_built_fields_round_trip(self, dim, metric, tmp_path):
        # a numpy dim and a ground metric given as lists are kept as the
        # int and float array they were checked as, so the set saves,
        # loads and measures like any other
        from knncompress.harness import make_metric
        data = ds.LabeledDataset(family="histogram", dim=dim,
                                 members=[[0.5, 0.5], [1.0, 0.0]],
                                 labels=[0, 1], ground_metric=metric)
        assert type(data.dim) is int
        assert data.ground_metric.dtype == float
        p = str(tmp_path / "hist.json")
        ds.save_dataset(data, p)
        back = ds.load_dataset(p)
        assert back.dim == 2
        assert np.array_equal(back.ground_metric, data.ground_metric)
        metric, _ = make_metric(data)
        assert metric(data.members[0], data.members[1]) > 0

    def test_large_label_counts_classes(self, tmp_path):
        # classes are counted, not read off the largest label
        data = ds.gen_histogram_dataset(2, 3, 4, 40.0, seed=17)
        data.labels = np.where(data.labels == 1, 2**62, 0)
        assert data.n_classes == 2
        p = str(tmp_path / "hist.json")
        ds.save_dataset(data, p)
        with open(p) as f:
            assert json.load(f)["classes"] == 2
        assert ds.load_dataset(p).n_classes == 2
