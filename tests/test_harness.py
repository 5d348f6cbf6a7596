import json
import warnings

import numpy as np
import pytest

from knncompress import harness
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

    def test_from_dict_ignores_unknown(self):
        plan = harness.ExperimentPlan.from_dict(
            {"ratios": [0.1], "methods": ["subsample"], "seeds": [0, 1],
             "note": "ignored"})
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
        np.testing.assert_allclose(metric.matrix(Q, R), want, rtol=1e-12)
        assert metric.matrix([], R).shape == (0, 3)


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

    def test_tune_shc(self):
        # a small lambda keeps the 27 Sinkhorn-bound tuning runs fast
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      seeds=(0,), shc_max_iter=8, lam=2.0,
                                      rmhc_steps=0, tune=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = harness.run_experiment(plan, hist_data())
        assert len(records) == 1
        assert records[0]["m_actual"] == round(0.2 * 21)
        assert 0.0 <= records[0]["error_rate"] <= 1.0


class TestPick:
    def plan(self):
        return harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      seeds=(0,), shc_max_iter=8, lam=2.0,
                                      rmhc_steps=0, tune=True)

    def test_degenerate_candidate_discarded(self, monkeypatch):
        real = harness.shc_compress
        tried = []

        def first_candidate_fails(train, m, config):
            tried.append(config.gamma_sq)
            if config.gamma_sq == tried[0]:
                raise DegeneratePi("every p_i underflowed")
            return real(train, m, config=config)

        monkeypatch.setattr(harness, "shc_compress", first_candidate_fails)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            records = harness.run_experiment(self.plan(), hist_data())
        assert len(records) == 1
        assert 0.0 <= records[0]["error_rate"] <= 1.0
        assert len(set(tried)) > 1

    def test_every_candidate_failing_raises(self, monkeypatch):
        def always_fails(train, m, config):
            raise DegeneratePi("every p_i underflowed")

        monkeypatch.setattr(harness, "shc_compress", always_fails)
        with pytest.raises(DegeneratePi):
            harness.run_experiment(self.plan(), hist_data())


class TestCompress:
    def test_ratio_must_be_in_plan(self):
        plan = harness.ExperimentPlan(ratios=(0.1,))
        with pytest.raises(BadParameters):
            harness.compress("cnn", cov_data(), 0.2, 0, plan)

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
