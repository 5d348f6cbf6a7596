import json
import warnings

import numpy as np
import pytest

from knncompress import harness, scc, shc
from knncompress.datasets import gen_covariance_dataset, gen_histogram_dataset
from knncompress.errors import BadParameters, DegeneratePi


def cov_data(seed=0):
    return gen_covariance_dataset(2, 20, 3, wishart_dof=30, separation=2.0,
                                  seed=seed)


def hist_data(seed=0):
    return gen_histogram_dataset(2, 15, 6, concentration=60.0, seed=seed)


class TestPlan:
    def test_bad_ratio(self):
        with pytest.raises(BadParameters):
            harness.ExperimentPlan(ratios=(0.0,))

    def test_bad_method(self):
        with pytest.raises(BadParameters):
            harness.ExperimentPlan(methods=("magic",))

    # each a setting that a config would refuse, so the plan refuses it
    # when built, before any cell runs
    @pytest.mark.parametrize("field, value, message", [
        ("gamma_sq", -1.0, "gamma_sq must be positive and finite"),
        ("gamma_sq", "x", "gamma_sq must be positive and finite"),
        ("lam", 0.0, "lam must be positive and finite"),
        ("lam", float("nan"), "lam must be positive and finite"),
        ("scc_max_iter", True, "must be at least 0"),
        ("shc_max_iter", -1, "must be at least 0"),
        ("rmhc_steps", 2.5, "must be at least 0"),
        ("seeds", (0, False), "must be at least 0"),
        ("ratios", (True,), "must be"),
        ("k", True, "must be"),
        ("k", 0, "k must be at least 1")])
    def test_setting_refused_when_built(self, field, value, message):
        with pytest.raises(BadParameters, match=message):
            harness.ExperimentPlan(**{field: value})

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(BadParameters, match="unknown plan keys: note"):
            harness.ExperimentPlan.from_dict(
                {"ratios": [0.1], "methods": ["subsample"], "seeds": [0, 1],
                 "note": "a remark"})
        plan = harness.ExperimentPlan.from_dict(
            {"ratios": [0.1], "methods": ["subsample"], "seeds": [0, 1]})
        assert plan.ratios == (0.1,)
        assert plan.seeds == (0, 1)


class TestSplit:
    def test_sizes_and_disjoint(self):
        data = cov_data()
        train, test = harness.split_dataset(data, seed=0)
        assert len(train) + len(test) == len(data)
        assert len(test) == round(0.3 * len(data))

    def test_stratified(self):
        data = cov_data()
        _, test = harness.split_dataset(data, seed=1)
        counts = np.bincount(test.labels)
        assert counts.min() >= 1
        assert abs(counts[0] - counts[1]) <= 1

    def test_deterministic(self):
        data = cov_data()
        a_train, a_test = harness.split_dataset(data, seed=2)
        b_train, b_test = harness.split_dataset(data, seed=2)
        assert np.array_equal(a_train.labels, b_train.labels)
        for X, Y in zip(a_test.members, b_test.members):
            assert np.array_equal(X, Y)


class TestMakeMetric:
    def test_covariance_is_jbld(self):
        from knncompress.spd import jbld
        metric, lam = harness.make_metric(cov_data())
        assert metric is jbld
        assert lam is None

    def test_histogram_closure(self):
        data = hist_data()
        metric, lam = harness.make_metric(data)
        assert lam > 0
        d = metric(data.members[0], data.members[1])
        assert d > 0
        assert metric(data.members[0], data.members[0]) < d

    @pytest.mark.parametrize("lam", [2.0, 200.0])
    def test_histogram_matrix_equals_per_pair(self, lam):
        data = gen_histogram_dataset(3, 3, 20, concentration=5.0, seed=1)
        metric, _ = harness.make_metric(data, lam, sinkhorn_max_iter=300)
        Q, R = data.members[:6], data.members[6:]
        want = np.array([[metric(q, x) for x in R] for q in Q])
        D, converged = metric.matrix(Q, R)
        np.testing.assert_allclose(D, want, rtol=1e-12)
        assert converged.shape == D.shape and converged.dtype == bool
        assert metric.matrix([], R)[0].shape == (0, 3)


class TestRunExperiment:
    def test_covariance_smoke(self, tmp_path):
        plan = harness.ExperimentPlan(ratios=(0.1, 0.2),
                                      methods=("subsample", "rmhc"),
                                      seeds=(0,), rmhc_steps=20)
        out = str(tmp_path / "records.jsonl")
        records = harness.run_experiment(plan, cov_data(), out_path=out)
        assert len(records) == 4
        with open(out) as f:
            lines = [json.loads(line) for line in f]
        assert lines == records
        for r in records:
            assert 0.0 <= r["error_rate"] <= 1.0
            assert r["distance_evals"] == r["m_actual"] * 12
            assert r["speedup"] > 0

    def test_histogram_smoke(self):
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("subsample",),
                                      seeds=(0,))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = harness.run_experiment(plan, hist_data())
        assert len(records) == 1
        assert records[0]["m_actual"] == round(0.2 * 21)

    def test_compressor_cells(self):
        plan = harness.ExperimentPlan(ratios=(0.2,),
                                      methods=("scc", "cnn", "rnn", "fcnn"),
                                      seeds=(0,), scc_max_iter=10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = harness.run_experiment(plan, cov_data())
        by_method = {r["method"]: r for r in records}
        assert set(by_method) == {"scc", "cnn", "rnn", "fcnn"}
        assert by_method["scc"]["m_actual"] == round(0.2 * 28)

    def test_determinism_bit_exact(self):
        plan = harness.ExperimentPlan(ratios=(0.1,),
                                      methods=("subsample", "scc"),
                                      seeds=(0, 1), scc_max_iter=8)
        a = harness.run_experiment(plan, cov_data())
        b = harness.run_experiment(plan, cov_data())
        for ra, rb in zip(a, b):
            assert ra["error_rate"] == rb["error_rate"]
            assert ra["m_actual"] == rb["m_actual"]
            assert ra["distance_evals"] == rb["distance_evals"]

    def test_train_matrix_built_once_per_seed(self, monkeypatch):
        calls = []
        real = harness.pairwise_distances

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(harness, "pairwise_distances", counting)
        plan = harness.ExperimentPlan(ratios=(0.1, 0.2),
                                      methods=("cnn", "rnn", "fcnn", "rmhc"),
                                      seeds=(0, 1), rmhc_steps=5)
        records = harness.run_experiment(plan, cov_data())
        assert len(records) == 16
        assert len(calls) == 2

    def test_tune_scc(self):
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("scc",),
                                      seeds=(0,), scc_max_iter=8, tune=True)
        records = harness.run_experiment(plan, cov_data())
        assert len(records) == 1
        assert records[0]["m_actual"] == round(0.2 * 28)
        assert 0.0 <= records[0]["error_rate"] <= 1.0

    def test_tune_scc_builds_one_start_and_objective(self, monkeypatch):
        # one start and one objective for the carve-out's gamma^2 grid and
        # its 9 candidates, and one of each for the cell
        calls = {"scc_init": 0, "SccObjective": 0}
        for name in calls:
            def counting(*args, real=getattr(scc, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(scc, name, counting)
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("scc",),
                                      seeds=(0,), scc_max_iter=8, tune=True)
        harness.run_experiment(plan, cov_data())
        assert calls == {"scc_init": 2, "SccObjective": 2}

    @pytest.mark.parametrize("rmhc_steps", [0, 5])
    def test_tune_shc(self, rmhc_steps):
        # a small lambda keeps the 27 Sinkhorn-bound tuning runs fast
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      seeds=(0,), shc_max_iter=8, lam=2.0,
                                      rmhc_steps=rmhc_steps, tune=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = harness.run_experiment(plan, hist_data())
        assert len(records) == 1
        assert records[0]["m_actual"] == round(0.2 * 21)
        assert 0.0 <= records[0]["error_rate"] <= 1.0

    def test_tune_shc_builds_one_start(self, monkeypatch):
        # one start for the carve-out's 27 candidates, one for the cell
        calls = {"shc_init": 0, "sinkhorn_pairwise": 0}

        def spy(name):
            real = getattr(shc, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(shc, name, counting)

        spy("shc_init")
        spy("sinkhorn_pairwise")
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      seeds=(0,), shc_max_iter=8, lam=2.0,
                                      rmhc_steps=5, tune=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            harness.run_experiment(plan, hist_data())
        assert calls == {"shc_init": 2, "sinkhorn_pairwise": 2}


class TestPick:
    def plan(self):
        return harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      seeds=(0,), shc_max_iter=8, lam=2.0,
                                      rmhc_steps=0, tune=True)

    def test_degenerate_candidate_discarded(self, monkeypatch):
        real = shc.descend
        tried = []

        def first_candidate_fails(start, train, config):
            tried.append(config.gamma_sq)
            if config.gamma_sq == tried[0]:
                raise DegeneratePi("every p_i underflowed")
            return real(start, train, config)

        monkeypatch.setattr(shc, "descend", first_candidate_fails)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = harness.run_experiment(self.plan(), hist_data())
        assert len(records) == 1
        assert 0.0 <= records[0]["error_rate"] <= 1.0
        assert len(set(tried)) > 1

    def test_every_candidate_failing_raises(self, monkeypatch):
        def always_fails(start, train, config):
            raise DegeneratePi("every p_i underflowed")

        monkeypatch.setattr(shc, "descend", always_fails)
        with pytest.raises(DegeneratePi):
            harness.run_experiment(self.plan(), hist_data())


class TestCompress:
    @pytest.mark.parametrize("m", [0, -1, 2.5, True, "3"])
    def test_m_must_be_a_count(self, m):
        plan = harness.ExperimentPlan(ratios=(0.1,))
        with pytest.raises(BadParameters, match="m must be at least 1"):
            harness.compress("cnn", cov_data(), m, 0, plan)

    @pytest.mark.parametrize("method", ["subsample", "rmhc"])
    def test_m_need_not_come_from_a_plan_ratio(self, method):
        # the cell cuts its own m; the plan's ratios do not enter
        plan = harness.ExperimentPlan(ratios=(0.5,), methods=(method,))
        assert len(harness.compress(method, cov_data(), 3, 0, plan)) == 3

    def test_unknown_method(self):
        plan = harness.ExperimentPlan(ratios=(0.1,))
        with pytest.raises(BadParameters):
            harness.compress("magic", cov_data(), 0.1, 0, plan)


class TestSummaryTable:
    def test_renders(self):
        plan = harness.ExperimentPlan(ratios=(0.1,), methods=("subsample",),
                                      seeds=(0, 1))
        records = harness.run_experiment(plan, cov_data())
        table = harness.summary_table(records)
        assert "subsample" in table
        assert "0.10" in table


# cov-select's FCNN selections (`gen_covariance_dataset(3, 100, 5, 8, 1.0,
# 2)`, split at each seed), as the plain centroid iteration made them
COV_SELECT_FCNN = {
    1: [
        3, 7, 13, 16, 18, 19, 25, 31, 33, 42, 43, 47, 52, 54, 66, 68, 69, 76,
        78, 80, 86, 98, 106, 107, 109, 110, 117, 118, 121, 125, 127, 129, 131,
        132, 133, 139, 140, 143, 155, 162, 164, 166, 172, 176, 179, 180, 190,
        193, 201, 208],
    2: [
        5, 10, 24, 26, 39, 41, 45, 48, 50, 51, 52, 59, 64, 71, 72, 77, 78, 80,
        85, 88, 91, 93, 99, 101, 102, 103, 104, 105, 106, 107, 109, 130, 132,
        137, 144, 145, 154, 166, 168, 172, 177, 178, 179, 181, 186, 187, 195,
        208],
    3: [
        3, 6, 8, 16, 17, 19, 21, 22, 26, 30, 37, 39, 40, 42, 46, 48, 49, 51,
        52, 55, 56, 57, 68, 69, 72, 75, 77, 78, 79, 80, 85, 88, 90, 92, 98,
        104, 105, 106, 107, 108, 110, 112, 125, 134, 139, 141, 153, 164, 166,
        170, 176, 178, 181, 185, 190, 191, 193, 194, 195, 196, 201, 203],
    7: [
        5, 18, 20, 22, 26, 27, 32, 37, 46, 47, 48, 50, 51, 57, 58, 66, 68, 69,
        72, 75, 76, 82, 87, 90, 92, 94, 99, 104, 111, 121, 126, 130, 133, 136,
        139, 140, 141, 145, 149, 154, 155, 157, 166, 167, 168, 173, 178, 181,
        184, 188, 193, 196, 200, 203],
    11: [
        5, 9, 12, 13, 14, 15, 17, 18, 20, 22, 32, 38, 41, 43, 46, 52, 55, 63,
        66, 67, 69, 76, 81, 82, 84, 88, 93, 99, 101, 102, 103, 106, 109, 112,
        115, 120, 127, 130, 134, 136, 139, 140, 141, 151, 152, 154, 159, 163,
        165, 166, 176, 179, 182, 184, 188, 193, 197, 207],
}


@pytest.mark.parametrize("seed", sorted(COV_SELECT_FCNN))
def test_cov_select_fcnn_selections_are_pinned(seed):
    from knncompress import baselines
    from knncompress.knn import pairwise_distances
    data = gen_covariance_dataset(3, 100, 5, 8, 1.0, 2)
    train, _ = harness.split_dataset(data, seed)
    metric, lam = harness.make_metric(train, None)
    D = pairwise_distances(train.members, metric)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = baselines.fcnn_reduce(train, D, metric,
                                   harness._centroid_fn(train, lam))
    assert rs.indices.tolist() == COV_SELECT_FCNN[seed]
