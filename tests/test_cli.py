import json
import warnings

import numpy as np
import pytest

from knncompress import cli, harness
from knncompress.datasets import LabeledDataset, load_dataset, save_dataset


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def cov_file(tmp_path):
    p = str(tmp_path / "cov.json")
    rc = cli.main(["gen-cov", "--classes", "2", "--per-class", "12",
                   "--dim", "3", "--dof", "25", "--separation", "2.0",
                   "--seed", "0", "--out", p])
    assert rc == 0
    return p


@pytest.fixture
def hist_file(tmp_path):
    p = str(tmp_path / "hist.json")
    rc = cli.main(["gen-hist", "--classes", "2", "--per-class", "10",
                   "--dim", "6", "--concentration", "60.0",
                   "--seed", "0", "--out", p])
    assert rc == 0
    return p


class TestGen:
    def test_gen_cov_contents(self, cov_file):
        ds = load_dataset(cov_file)
        assert ds.family == "covariance"
        assert len(ds) == 24
        assert ds.dim == 3

    def test_gen_hist_contents(self, hist_file):
        ds = load_dataset(hist_file)
        assert ds.family == "histogram"
        assert ds.ground_metric.shape == (6, 6)

    def test_gen_cov_bad_params_exit_2(self, tmp_path):
        rc = cli.main(["gen-cov", "--dof", "1", "--dim", "5",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 2

    @pytest.mark.parametrize("flag, value", [
        ("--separation", "nan"), ("--separation", "inf"), ("--seed", "-1"),
        ("--classes", "0")])
    def test_gen_cov_bad_value_exit_2(self, tmp_path, flag, value):
        rc = cli.main(["gen-cov", "--classes", "2", "--per-class", "5",
                       flag, value, "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_gen_hist_negative_seed_exit_2(self, tmp_path):
        rc = cli.main(["gen-hist", "--seed", "-1",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 2

    def test_gen_hist_one_bin_exit_2(self, tmp_path):
        rc = cli.main(["gen-hist", "--dim", "1",
                       "--out", str(tmp_path / "x.json")])
        assert rc == 2


class TestCompress:
    def test_subsample(self, cov_file, tmp_path):
        out = str(tmp_path / "sub.json")
        rc = cli.main(["compress", "--method", "subsample",
                       "--ratio", "0.25", "--in", cov_file, "--out", out])
        assert rc == 0
        assert len(load_dataset(out)) == 6

    def test_scc(self, cov_file, tmp_path):
        out = str(tmp_path / "scc.json")
        rc = cli.main(["compress", "--method", "scc", "--ratio", "0.2",
                       "--max-iter", "10", "--in", cov_file, "--out", out])
        assert rc == 0
        ds = load_dataset(out)
        assert len(ds) == 5
        for X in ds.members:
            np.linalg.cholesky(X)

    def test_shc(self, hist_file, tmp_path):
        out = str(tmp_path / "shc.json")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["compress", "--method", "shc", "--ratio", "0.2",
                           "--max-iter", "5", "--rmhc-steps", "0",
                           "--in", hist_file, "--out", out])
        assert rc == 0
        ds = load_dataset(out)
        assert len(ds) == 4
        for h in ds.members:
            assert h.sum() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("method", ["cnn", "fcnn"])
    def test_snapshot_at_ratio_matches_bench(self, tmp_path, method):
        # overlapping classes, so the full CNN and FCNN sets exceed m
        data = str(tmp_path / "overlap.json")
        assert cli.main(["gen-cov", "--classes", "3", "--per-class", "20",
                         "--dim", "3", "--dof", "6", "--separation", "0.3",
                         "--seed", "1", "--out", data]) == 0
        train = load_dataset(data)
        ratio, m = 0.05, 3

        def bench_cell(budget):
            plan = harness.ExperimentPlan(methods=(method,))
            return harness.compress(method, train, budget, 0, plan)

        out = str(tmp_path / "out.json")
        assert cli.main(["compress", "--method", method, "--ratio",
                         str(ratio), "--in", data, "--out", out]) == 0
        written = load_dataset(out)
        if method == "cnn":  # CNN grows one member at a time
            assert len(written) == m
        full = bench_cell(len(train))  # no snapshot reaches n: the final set
        assert m <= len(written) < len(full)
        cell = bench_cell(m)
        assert np.array_equal(written.labels, cell.labels)
        for X, Y in zip(written.members, cell.members):
            assert np.array_equal(X, Y)

    @pytest.mark.parametrize("method, flag, value", [
        ("scc", "--max-iter", "-3"), ("shc", "--max-iter", "-2"),
        ("rmhc", "--rmhc-steps", "-4")])
    def test_negative_iterations_exit_2(self, cov_file, hist_file, tmp_path,
                                        capsys, method, flag, value):
        inp = cov_file if method == "scc" else hist_file
        rc = cli.main(["compress", "--method", method, "--ratio", "0.2",
                       flag, value, "--in", inp,
                       "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "must be at least 0" in capsys.readouterr().err

    def test_rmhc_zero_steps_is_subsample(self, hist_file, tmp_path,
                                          monkeypatch):
        # no hill-climbing step reads a distance, so no train-by-train
        # Sinkhorn matrix is solved, and the members are subsample's
        from knncompress import ot
        calls, pairwise = [], ot.sinkhorn_pairwise

        def spy(*args, **kwargs):
            calls.append(args)
            return pairwise(*args, **kwargs)

        monkeypatch.setattr(ot, "sinkhorn_pairwise", spy)
        written = []
        for method in ("rmhc", "subsample"):
            out = str(tmp_path / f"{method}.json")
            assert cli.main(["compress", "--method", method, "--ratio", "0.2",
                             "--rmhc-steps", "0", "--in", hist_file,
                             "--out", out]) == 0
            written.append(load_dataset(out))
        assert calls == []
        rmhc, sub = written
        assert np.array_equal(rmhc.labels, sub.labels)
        assert np.array_equal(rmhc.members, sub.members)

    @pytest.mark.parametrize("method", ["scc", "shc"])
    @pytest.mark.parametrize("gamma_sq", ["0", "-1", "nan", "inf"])
    def test_gamma_sq_out_of_range_exit_2(self, cov_file, hist_file, tmp_path,
                                          capsys, method, gamma_sq):
        inp = cov_file if method == "scc" else hist_file
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = cli.main(["compress", "--method", method, "--ratio", "0.2",
                           "--max-iter", "3", "--gamma-sq", gamma_sq,
                           "--in", inp, "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "gamma_sq must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["0", "-2", "nan"])
    def test_lambda_out_of_range_exit_2(self, hist_file, tmp_path, capsys,
                                        lam):
        # subsample solves nothing, but its plan refuses the lambda as
        # every other method's does
        out = tmp_path / "o.json"
        rc = cli.main(["compress", "--method", "subsample", "--lambda", lam,
                       "--in", hist_file, "--out", str(out)])
        assert rc == 2
        assert "lam must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma_sq", ["0", "-1", "nan", "inf"])
    def test_shc_gamma_sq_checked_before_setup(self, hist_file, tmp_path,
                                               capsys, monkeypatch, gamma_sq):
        # no train-by-train Sinkhorn matrix is solved, and no unconverged
        # pair reported, for a gamma^2 the model would reject
        from knncompress import shc
        calls, pairwise = [], shc.sinkhorn_pairwise

        def spy(*args, **kwargs):
            calls.append(args)
            return pairwise(*args, **kwargs)

        monkeypatch.setattr(shc, "sinkhorn_pairwise", spy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["compress", "--method", "shc", "--ratio", "0.2",
                           "--max-iter", "3", "--gamma-sq", gamma_sq,
                           "--in", hist_file,
                           "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "gamma_sq must be positive and finite" in capsys.readouterr().err
        assert calls == [] and caught == []

    @pytest.mark.parametrize("family", ["covariance", "histogram"])
    @pytest.mark.parametrize("method", ["cnn", "rnn", "fcnn"])
    def test_empty_dataset_exit_2(self, tmp_path, capsys, family, method):
        doc = {"family": family, "dim": 2, "members": [], "labels": []}
        if family == "histogram":
            doc["ground_metric"] = [[0, 1], [1, 0]]
        empty = str(tmp_path / "empty.json")
        with open(empty, "w") as f:
            json.dump(doc, f)
        rc = cli.main(["compress", "--method", method, "--in", empty,
                       "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert "empty" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path):
        rc = cli.main(["compress", "--method", "subsample",
                       "--in", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "o.json")])
        assert rc == 2


class TestEval:
    def test_eval_json(self, cov_file, tmp_path, capsys):
        sub = str(tmp_path / "sub.json")
        cli.main(["compress", "--method", "subsample", "--ratio", "0.25",
                  "--in", cov_file, "--out", sub])
        rc = cli.main(["eval", "--reference", sub, "--test", cov_file,
                       "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1],
                         parse_constant=_no_constant)  # strict JSON
        assert 0.0 <= doc["error_rate"] <= 1.0
        assert doc["distance_evals"] == 24 * 6
        assert doc["unconverged"] == 0  # JBLD has no solver to converge

    @pytest.mark.parametrize("family", ["covariance", "histogram"])
    def test_empty_test_set_exit_2(self, cov_file, hist_file, tmp_path,
                                   capsys, family):
        # no error rate to report, so no NaN line and no exit 0
        reference = cov_file if family == "covariance" else hist_file
        with open(reference) as f:
            doc = json.load(f)
        doc["members"], doc["labels"] = [], []
        empty = str(tmp_path / "empty.json")
        with open(empty, "w") as f:
            json.dump(doc, f)
        rc = cli.main(["eval", "--reference", reference, "--test", empty,
                       "--json"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "empty test set" in err
        assert "error_rate" not in out

    def test_plain_line_reports_unconverged(self, tmp_path, capsys):
        # at lambda 1e9 most Sinkhorn pairs stop at the iteration cap
        p = str(tmp_path / "h.json")
        cli.main(["gen-hist", "--classes", "2", "--per-class", "2",
                  "--out", p])
        rc = cli.main(["eval", "--reference", p, "--test", p,
                       "--lambda", "1e9"])
        assert rc == 0
        fields = dict(f.split("=") for f in
                      capsys.readouterr().out.splitlines()[-1].split())
        assert int(fields["unconverged"]) > 0

    @pytest.mark.parametrize("key", ["family", "dim", "members", "labels"])
    def test_missing_key_exit_2(self, cov_file, tmp_path, capsys, key):
        with open(cov_file) as f:
            doc = json.load(f)
        del doc[key]
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        rc = cli.main(["eval", "--reference", cov_file, "--test", bad])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_non_object_exit_2(self, cov_file, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump([1, 2, 3], f)
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2

    @staticmethod
    def edited(cov_file, tmp_path, edit):
        with open(cov_file) as f:
            doc = json.load(f)
        edit(doc)
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump(doc, f)
        return bad

    def test_nan_member_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc["members"][3].__setitem__(4, np.nan))
        rc = cli.main(["eval", "--reference", cov_file, "--test", bad])
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_dim_not_integer_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc.__setitem__("dim", "x"))
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "dim" in capsys.readouterr().err

    def test_labels_not_integer_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc["labels"].__setitem__(0, 0.5))
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "labels" in capsys.readouterr().err

    def test_members_not_a_list_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc.__setitem__("members", {"a": 1}))
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "members must be a list" in capsys.readouterr().err

    def test_member_wrong_size_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc["members"][0].pop())
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "member" in capsys.readouterr().err

    def test_asymmetric_member_exit_2(self, cov_file, tmp_path, capsys):
        def raise_upper_triangle(doc):
            member = doc["members"][3]  # row-major 3 x 3
            for k in (1, 2, 5):
                member[k] += 5.0

        bad = self.edited(cov_file, tmp_path, raise_upper_triangle)
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "symmetric" in capsys.readouterr().err

    def test_indefinite_member_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path, lambda doc: doc["members"]
                          .__setitem__(3, (-np.eye(3)).ravel().tolist()))
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "positive definite" in capsys.readouterr().err

    def test_singular_member_exit_2(self, cov_file, tmp_path, capsys):
        # all-ones is PSD but singular: plain Cholesky fails on it
        bad = self.edited(cov_file, tmp_path, lambda doc: doc["members"]
                          .__setitem__(0, np.ones(9).tolist()))
        rc = cli.main(["compress", "--method", "scc", "--ratio", "0.5",
                       "--max-iter", "3", "--in", bad,
                       "--out", str(tmp_path / "ref.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main(["eval", "--reference", bad, "--test", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_member_only_lapack_factors_exit_2(self, cov_file, tmp_path,
                                               capsys):
        a = float(np.float32(3.4723482)) ** 2
        bad = self.edited(cov_file, tmp_path, lambda doc: doc["members"]
                          .__setitem__(0, [a, a, 0.0, a, a, 0.0, 0.0, 0.0,
                                           1.0]))
        assert cli.main(["eval", "--reference", bad, "--test", cov_file]) == 2
        assert "positive definite" in capsys.readouterr().err

    def test_scc_rejected_start_exit_2(self, cov_file, tmp_path, capsys):
        # passes plain Cholesky on a pivot of 4e-16, so the dataset takes
        # it, but its factor is below SCC's conditioning floor
        M = [[2.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        bad = self.edited(cov_file, tmp_path, lambda doc: doc.__setitem__(
            "members", [np.ravel(M).tolist()] * len(doc["members"])))
        rc = cli.main(["compress", "--method", "scc", "--ratio", "0.5",
                       "--max-iter", "3", "--in", bad,
                       "--out", str(tmp_path / "ref.json")])
        assert rc == 2
        assert "rejects" in capsys.readouterr().err

    def test_negative_jbld_pair_exit_3(self, tmp_path, capsys):
        # two rank-2 members (condition about 1e16) that plain Cholesky
        # takes; their JBLD rounds to -0.123, so each reads as the other's
        # nearest member and the error rate would read 1.0
        X = [[25.037095005525885, -14.621090868445094, -10.564805697265257],
             [-14.621090868445094, 10.96355704405164, 1.9545258395623932],
             [-10.564805697265257, 1.9545258395623932, 11.784016429757017]]
        Y = [[25.037095005525888, -14.621090868445092, -10.564805697265262],
             [-14.621090868445092, 10.96355704405165, 1.9545258395623963],
             [-10.564805697265262, 1.9545258395623963, 11.784016429757013]]
        path = str(tmp_path / "pair.json")
        save_dataset(LabeledDataset(family="covariance", dim=3,
                                    members=[X, Y], labels=[0, 1]), path)
        rc = cli.main(["eval", "--reference", path, "--test", path,
                       "--json"])
        assert rc == 3
        assert "negative distance" in capsys.readouterr().err

    def test_large_label_k3(self, cov_file, tmp_path, capsys):
        ref = self.edited(cov_file, tmp_path,
                          lambda doc: doc["labels"].__setitem__(0, 2**62))
        rc = cli.main(["eval", "--reference", ref, "--test", cov_file,
                       "--k", "3", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 0.0 <= doc["error_rate"] <= 1.0

    def test_negative_label_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc["labels"].__setitem__(0, -1))
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "labels" in capsys.readouterr().err

    def test_off_simplex_member_exit_2(self, hist_file, tmp_path, capsys):
        # subsample computes no distance, so only the load can catch it
        bad = self.edited(hist_file, tmp_path,
                          lambda doc: doc["members"][2].__setitem__(0, 0.9))
        rc = cli.main(["compress", "--method", "subsample", "--ratio", "0.2",
                       "--in", bad, "--out", str(tmp_path / "ref.json")])
        assert rc == 2
        assert "histogram mass" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_exit_2(self, cov_file, capsys, k):
        rc = cli.main(["eval", "--reference", cov_file, "--test", cov_file,
                       "--k", k])
        assert rc == 2
        assert "k=" in capsys.readouterr().err

    def test_family_mismatch_exit_2(self, cov_file, hist_file):
        rc = cli.main(["eval", "--reference", cov_file, "--test", hist_file])
        assert rc == 2

    def test_ground_metric_mismatch_exit_2(self, hist_file, tmp_path, capsys):
        # gen-hist draws its ground metric from the seed
        other = str(tmp_path / "other.json")
        assert cli.main(["gen-hist", "--classes", "2", "--per-class", "10",
                         "--dim", "6", "--seed", "1", "--out", other]) == 0
        rc = cli.main(["eval", "--reference", hist_file, "--test", other])
        assert rc == 2
        assert "ground metrics differ" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_records(self, cov_file, tmp_path, capsys):
        plan = {"ratios": [0.2], "methods": ["subsample"], "seeds": [0, 1]}
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        out = str(tmp_path / "records.jsonl")
        rc = cli.main(["bench", "--plan", plan_path, "--data", cov_file,
                       "--out", out, "--deterministic"])
        assert rc == 0
        with open(out) as f:
            records = [json.loads(line) for line in f]
        assert len(records) == 2
        assert "subsample" in capsys.readouterr().out

    def test_bad_plan_exit_2(self, cov_file, tmp_path):
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as f:
            f.write("{not json")
        rc = cli.main(["bench", "--plan", plan_path, "--data", cov_file,
                       "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2

    def test_unknown_plan_key_exit_2(self, cov_file, tmp_path, capsys):
        # a misspelled "methods" must not run the default plan
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as f:
            json.dump({"method": ["scc"]}, f)
        rc = cli.main(["bench", "--plan", plan_path, "--data", cov_file,
                       "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert "unknown plan keys: method" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("empty", ["methods", "ratios", "seeds"])
    def test_plan_with_no_cells_exit_2(self, cov_file, tmp_path, capsys,
                                       empty):
        plan = {"methods": ["subsample"], "ratios": [0.5], "seeds": [0]}
        plan[empty] = []
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        rc = cli.main(["bench", "--plan", plan_path, "--data", cov_file,
                       "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert f"{empty} must be a non-empty list" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("plan", [
        [1, 2], {"ratios": "abc"}, {"k": "1"}, {"seeds": [1.5]},
        {"ratios": [0.1], "scc_max_iter": "5", "methods": ["scc"]},
        {"methods": "cnn"}, {"seeds": [-1]}, {"tune": 1},
        {"gamma_sq": "big"}, {"methods": [None]},
        {"tune": True, "gamma_sq": 1.0},
        # refused when the plan is built, not when the first cell that
        # reads the setting runs, after other cells wrote their records
        {"methods": ["subsample", "scc"], "ratios": [0.2],
         "scc_max_iter": 2, "gamma_sq": -1},
        {"lam": 0}, {"shc_max_iter": True}, {"seeds": [False]}, {"k": 0}])
    def test_ill_typed_plan_exit_2(self, cov_file, tmp_path, capsys, plan):
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)
        rc = cli.main(["bench", "--plan", plan_path, "--data", cov_file,
                       "--out", str(tmp_path / "r.jsonl")])
        assert rc == 2
        assert "must be" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()


class TestSelfcheck:
    def test_all_pass(self, capsys):
        assert cli.main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "sinkhorn_matrix equals per-pair sinkhorn" in out
        assert "sinkhorn_pairwise equals per-pair sinkhorn" in out
