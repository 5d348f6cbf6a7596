import json
import warnings

import numpy as np
import pytest

from knncompress import cli, harness
from knncompress.datasets import load_dataset


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

        def bench_cell(r):
            plan = harness.ExperimentPlan(ratios=(r,), methods=(method,))
            return harness.compress(method, train, r, 0, plan)

        out = str(tmp_path / "out.json")
        assert cli.main(["compress", "--method", method, "--ratio",
                         str(ratio), "--in", data, "--out", out]) == 0
        written = load_dataset(out)
        if method == "cnn":  # CNN grows one member at a time
            assert len(written) == m
        full = bench_cell(1.0)  # no snapshot reaches n: the final set
        assert m <= len(written) < len(full)
        cell = bench_cell(ratio)
        assert np.array_equal(written.labels, cell.labels)
        for X, Y in zip(written.members, cell.members):
            assert np.array_equal(X, Y)

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
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert 0.0 <= doc["error_rate"] <= 1.0
        assert doc["distance_evals"] == 24 * 6

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

    def test_member_wrong_size_exit_2(self, cov_file, tmp_path, capsys):
        bad = self.edited(cov_file, tmp_path,
                          lambda doc: doc["members"][0].pop())
        assert cli.main(["eval", "--reference", cov_file, "--test", bad]) == 2
        assert "member" in capsys.readouterr().err

    def test_off_simplex_member_exit_2(self, hist_file, tmp_path, capsys):
        # subsample computes no distance, so only the load can catch it
        bad = self.edited(hist_file, tmp_path,
                          lambda doc: doc["members"][2].__setitem__(0, 0.9))
        rc = cli.main(["compress", "--method", "subsample", "--ratio", "0.2",
                       "--in", bad, "--out", str(tmp_path / "ref.json")])
        assert rc == 2
        assert "histogram mass" in capsys.readouterr().err

    def test_family_mismatch_exit_2(self, cov_file, hist_file):
        rc = cli.main(["eval", "--reference", cov_file, "--test", hist_file])
        assert rc == 2


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


class TestSelfcheck:
    def test_all_pass(self, capsys):
        assert cli.main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
