import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from knncompress import harness, ot, shc
from knncompress.datasets import LabeledDataset, gen_histogram_dataset
from knncompress.errors import (
    BadParameters, NonFiniteInput, TooFewInputs, ValidationError)
from knncompress.neighborhood import assign, gradient_coeffs
from knncompress.ot import clamp_histogram


def small_train(seed=0, classes=2, per_class=6, d=5, concentration=30.0):
    return gen_histogram_dataset(classes=classes, per_class=per_class, d=d,
                                 concentration=concentration, seed=seed)


def fd_instance(seed, d=4, n=3, m=2, scale=2.0, alpha=2.0):
    """Tiny seeded (train, state) pair for directional gradient checks."""
    rng = np.random.default_rng(seed)
    H = [clamp_histogram(rng.dirichlet([alpha] * d)) for _ in range(n)]
    pts = rng.standard_normal((d, 2))
    M = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    M = M / M.max() * scale
    train = LabeledDataset(family="histogram", dim=d, members=H,
                           labels=np.array([0, 1, 0]), ground_metric=M,
                           metadata={})
    logits = np.log(np.stack(
        [clamp_histogram(rng.dirichlet([alpha] * d)) for _ in range(m)]))
    state = shc.ShcState(logits=logits, labels=np.array([0, 1]),
                         gamma_sq=1.0, lam=100.0)
    return train, state


class TestSoftmaxDecode:
    def test_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            h = shc.softmax_decode(rng.standard_normal(6) * 5)
            assert h.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(h > 0)

    def test_shift_invariant(self):
        w = np.array([0.3, -1.2, 2.0])
        assert np.allclose(shc.softmax_decode(w), shc.softmax_decode(w + 7.0))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFiniteInput):
            shc.softmax_decode(np.array([0.0, np.inf]))


class TestDefaultLambda:
    def test_median_rule(self):
        M = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert shc.default_lambda(M) == pytest.approx(5.0)


class TestInit:
    def test_stratified_no_search(self):
        train = small_train()
        state = shc.shc_init(train, 4, shc.ShcConfig(rmhc_steps=0))
        assert state.m == 4
        assert sorted(state.labels.tolist()) == [0, 0, 1, 1]
        protos = state.prototypes()
        for h in protos:
            assert h.sum() == pytest.approx(1.0)

    def test_prototypes_near_train_members(self):
        train = small_train()
        state = shc.shc_init(train, 3, shc.ShcConfig(rmhc_steps=0, seed=1))
        for h in state.prototypes():
            gaps = [np.abs(h - hm).sum() for hm in train.members]
            assert min(gaps) < 1e-6

    def test_m_too_large(self):
        with pytest.raises(TooFewInputs):
            shc.shc_init(small_train(), 100, shc.ShcConfig())

    def test_wrong_family(self):
        ds = LabeledDataset(family="covariance", dim=2,
                            members=[np.eye(2)], labels=np.array([0]),
                            metadata={})
        with pytest.raises(ValidationError):
            shc.shc_init(ds, 1, shc.ShcConfig())


class TestLossGrad:
    def test_gradient_orthogonal_to_ones(self):
        # softmax shift invariance: each prototype's gradient sums to zero
        train, state = fd_instance(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, g, _ = shc.shc_loss_grad(
                state, train, config=shc.ShcConfig(sinkhorn_tol=1e-10))
        assert np.max(np.abs(g.sum(axis=1))) < 1e-10

    def test_directional_fd_ten_seeds(self):
        errs = []
        for seed in range(10):
            train, state = fd_instance(seed)
            cfg = shc.ShcConfig(sinkhorn_tol=1e-12, sinkhorn_max_iter=50000)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, g, _ = shc.shc_loss_grad(state, train, config=cfg)
                rng = np.random.default_rng(seed + 1000)
                v = rng.standard_normal(state.logits.shape)
                v /= np.linalg.norm(v)
                h = 1e-5

                def at(L):
                    st = shc.ShcState(L, state.labels, 1.0, 100.0)
                    return shc.shc_loss_grad(st, train, config=cfg)[0]

                fd = (at(state.logits + h * v)
                      - at(state.logits - h * v)) / (2 * h)
            errs.append(abs(fd - np.sum(g * v)) / max(abs(fd), 1e-12))
        assert max(errs) < 5e-2

    def test_gradient_equals_per_prototype_loop(self):
        # the loop over prototypes that the einsum replaced is the
        # reference; max_iter 40 leaves 23 of the 48 pairs unconverged
        train = small_train(seed=4)
        state = shc.shc_init(train, 4, shc.ShcConfig(rmhc_steps=0))
        cfg = shc.ShcConfig(sinkhorn_tol=1e-4, sinkhorn_max_iter=40)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, g, _ = shc.shc_loss_grad(state, train, config=cfg)
        P = state.prototypes()
        n, m = len(train), len(P)
        dists, betas, _, conv, _ = ot.sinkhorn_batch(
            train.members, P, train.ground_metric, state.lam, 1e-4, 40,
            pairs=(np.tile(np.arange(n), m), np.repeat(np.arange(m), n)))
        D, betas, conv = (dists.reshape(m, n).T, betas.reshape(m, n, -1),
                          conv.reshape(m, n).T)
        assert 0 < conv.sum() < conv.size
        match = train.labels[:, None] == state.labels[None, :]
        C = gradient_coeffs(*assign(D, match, state.gamma_sq), match,
                            state.gamma_sq)
        want = np.zeros_like(g)
        for j, h in enumerate(P):
            B = betas[j] - betas[j].mean(axis=1, keepdims=True)
            t = B * h[None, :]
            contrib = t - t.sum(axis=1, keepdims=True) * h[None, :]
            want[j] = np.where(conv[:, j], C[:, j], 0.0) @ contrib
        np.testing.assert_allclose(g, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_saturated_gradient_small(self):
        # one exact same-label prototype, far wrong-label one, sharp gamma
        d = 4
        idx = np.arange(d, dtype=float)
        M = np.abs(idx[:, None] - idx[None, :])
        h0 = clamp_histogram(np.array([0.9, 0.05, 0.03, 0.02]))
        far = clamp_histogram(np.array([0.02, 0.03, 0.05, 0.9]))
        train = LabeledDataset(family="histogram", dim=d, members=[h0],
                               labels=np.array([0]), ground_metric=M,
                               metadata={})
        logits = np.log(np.stack([h0, far]))
        state = shc.ShcState(logits=logits, labels=np.array([0, 1]),
                             gamma_sq=50.0, lam=20.0)
        _, g, _ = shc.shc_loss_grad(state, train, config=shc.ShcConfig(
            sinkhorn_tol=1e-11, sinkhorn_max_iter=20000))
        assert np.max(np.abs(g)) < 1e-4


class TestCompress:
    def test_loss_history_non_increasing(self):
        train = small_train(seed=3)
        cfg = shc.ShcConfig(max_iter=20, rmhc_steps=0, seed=0,
                            sinkhorn_tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = shc.shc_compress(train, 4, config=cfg)
        hist = state.loss_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_prototypes_on_simplex(self):
        train = small_train(seed=5)
        cfg = shc.ShcConfig(max_iter=10, rmhc_steps=0, seed=0,
                            sinkhorn_tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = shc.shc_compress(train, 4, config=cfg)
        for h in state.prototypes():
            assert h.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(h > 0)

    def test_deterministic(self):
        train = small_train(seed=7, per_class=4)
        cfg = shc.ShcConfig(max_iter=8, rmhc_steps=10, seed=2,
                            sinkhorn_tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = shc.shc_compress(train, 4, config=cfg)
            b = shc.shc_compress(train, 4, config=cfg)
        assert np.array_equal(a.logits, b.logits)
        assert a.loss_history == b.loss_history

    def test_fixed_lambda_and_gamma(self):
        train = small_train(seed=9, per_class=3)
        cfg = shc.ShcConfig(max_iter=3, rmhc_steps=0, seed=0,
                            lam=25.0, gamma_sq=2.0, sinkhorn_tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = shc.shc_compress(train, 2, config=cfg)
        assert state.lam == 25.0
        assert state.gamma_sq == 2.0

    def test_descents_share_a_start(self):
        # the start is not changed, so a second descent from it repeats
        # the first exactly
        train = small_train(seed=7, per_class=4)
        start = shc.shc_init(train, 4, shc.ShcConfig(rmhc_steps=10, seed=2))
        logits = start.logits.copy()
        cfg = shc.ShcConfig(max_iter=6, sinkhorn_tol=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = shc.descend(start, train, cfg)
            b = shc.descend(start, train, cfg)
        assert np.array_equal(start.logits, logits)
        assert start.gamma_sq == 1.0
        assert start.loss_history == [] and start.best_snapshot is None
        assert np.array_equal(a.logits, b.logits)
        assert a.gamma_sq == b.gamma_sq
        assert a.loss_history == b.loss_history

    @pytest.mark.parametrize("m", ["4", True, 2.5])
    def test_bad_m_refused_before_any_solve(self, m, monkeypatch):
        calls = []
        monkeypatch.setattr(shc, "sinkhorn_pairwise",
                            lambda *a: calls.append(1))
        with pytest.raises(BadParameters, match="m must be at least 0"):
            shc.shc_init(small_train(), m, shc.ShcConfig(rmhc_steps=5))
        assert calls == []

    @pytest.mark.parametrize("field, value", [
        ("learn_rate", 0.0), ("learn_rate", -1.0), ("learn_rate", np.nan),
        ("learn_rate", np.inf), ("max_iter", -1), ("rmhc_steps", -1),
        ("seed", -1), ("max_iter", 2.5), ("rmhc_steps", 2.5), ("seed", 2.5),
        ("sinkhorn_max_iter", 2.5), ("gamma_sq", 0.0), ("lam", -1.0),
        ("sinkhorn_tol", np.inf), ("max_iter", True), ("sinkhorn_tol", [1]),
        ("lam", "2")])
    def test_config_out_of_range_rejected_before_any_solve(
            self, field, value, monkeypatch):
        # a learning rate of 0 or -1 and a negative max_iter used to return
        # the start, and a negative rmhc_steps to subsample, without a word;
        # a negative seed ended in numpy's ValueError and a fractional
        # count in a TypeError.  The config is checked when it is built.
        solves, real = [], ot.sinkhorn_batch
        for module in (ot, shc):
            monkeypatch.setattr(module, "sinkhorn_batch", lambda *a, **kw:
                                solves.append(1) or real(*a, **kw))
        with pytest.raises(BadParameters, match=field):
            shc.shc_compress(small_train(), 4, shc.ShcConfig(
                **{"max_iter": 3, "rmhc_steps": 5, field: value}))
        with pytest.raises(BadParameters, match=field):
            replace(shc.ShcConfig(), **{field: value})
        with pytest.raises(FrozenInstanceError):  # nor set afterwards
            setattr(shc.ShcConfig(), field, value)
        assert solves == []

    @pytest.mark.parametrize("rmhc_steps", [0, 5])
    def test_nan_sinkhorn_tol_rejected(self, rmhc_steps):
        # every pair used to end unconverged after one pass, so the
        # gradient dropped them all and the run returned its start
        with pytest.raises(BadParameters):
            shc.shc_compress(small_train(), 4, shc.ShcConfig(
                max_iter=3, rmhc_steps=rmhc_steps, sinkhorn_tol=np.nan))

    def test_given_gamma_used_from_the_start(self, monkeypatch):
        # the start's loss and gradient are taken at the given gamma^2, in
        # one call; selecting gamma^2 takes a second
        train = gen_histogram_dataset(2, 10, 6, 40.0, seed=0)
        real = shc.shc_loss_grad
        gammas = []

        def spy(state, *args, **kwargs):
            gammas.append(state.gamma_sq)
            return real(state, *args, **kwargs)

        monkeypatch.setattr(shc, "shc_loss_grad", spy)
        cfg = shc.ShcConfig(max_iter=5, rmhc_steps=0, seed=0, gamma_sq=5.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = shc.shc_compress(train, 4, config=cfg)
            start = shc.shc_init(train, 4, shc.ShcConfig(rmhc_steps=0))
            start.gamma_sq = 5.0
            want = real(start, train)[0]
        assert gammas == [5.0] * (1 + cfg.max_iter)
        assert state.loss_history[0] == pytest.approx(want, rel=1e-9)
        assert state.loss_history[0] == pytest.approx(1.182, abs=1e-3)

    def test_nan_trial_rejected(self, monkeypatch):
        train = small_train(seed=3)
        cfg = shc.ShcConfig(max_iter=3, rmhc_steps=0, seed=0)
        real = shc.shc_loss_grad
        calls = []

        def nan_on_third(*args, **kwargs):
            loss, grad, D = real(*args, **kwargs)
            calls.append(loss)
            # calls 1-2 evaluate the start (before and after gamma^2 is
            # picked); call 3 is the first trial step
            return (np.nan if len(calls) == 3 else loss), grad, D

        monkeypatch.setattr(shc, "shc_loss_grad", nan_on_third)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            state = shc.shc_compress(train, 4, config=cfg)
        assert len(calls) == 2 + cfg.max_iter
        assert np.all(np.isfinite(state.loss_history))
        assert np.isfinite(state.best_snapshot[1])

    def test_every_log_domain_solve_starts_cold(self, monkeypatch):
        # at lambda 200 exp(-lambda M) underflows, so each of the four
        # loss calls solves in the log domain; the warm V the last call
        # left is 1 there, and every solve runs the epsilon-scaling stages
        train = gen_histogram_dataset(2, 6, 8, 5.0, 0)
        M = train.ground_metric
        solves, log_scaling, log_stage = [], ot._log_scaling, ot._log_stage

        def scaling_spy(*args):
            solves.append([])
            return log_scaling(*args)

        def stage_spy(H, Hp, logK, *args):
            solves[-1].append(float(logK[0, 1] / -M[0, 1]))
            return log_stage(H, Hp, logK, *args)

        monkeypatch.setattr(ot, "_log_scaling", scaling_spy)
        monkeypatch.setattr(ot, "_log_stage", stage_spy)
        cfg = shc.ShcConfig(max_iter=3, lam=200.0, rmhc_steps=0, seed=0,
                            gamma_sq=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shc.shc_compress(train, 2, cfg)
        assert len(solves) == 4
        for lams in solves:
            assert lams == pytest.approx([200.0, 12.5, 25.0, 50.0, 100.0,
                                          200.0])

    def test_each_solve_warm_starts_from_the_last_of_its_run(
            self, monkeypatch):
        # a descent builds one ShcObjective, and each of its loss calls
        # seeds its solve with the V the last call left; the first is cold.
        # Tuning builds one objective for the start's distances and one per
        # candidate, so each candidate's first solve is cold too
        built, solves, real = [], [], shc.sinkhorn_batch

        class Counting(shc.ShcObjective):
            def __init__(self, *args):
                built.append(len(solves))  # the index of its first solve
                super().__init__(*args)

        def spy(*args, **kwargs):
            out = real(*args, **kwargs)
            solves.append((args[6], out))
            return out

        monkeypatch.setattr(shc, "ShcObjective", Counting)
        monkeypatch.setattr(shc, "sinkhorn_batch", spy)
        train = small_train()
        cfg = shc.ShcConfig(max_iter=4, rmhc_steps=0, lam=2.0,
                            sinkhorn_tol=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shc.shc_compress(train, 4, cfg)
        assert built == [0] and len(solves) == 2 + cfg.max_iter
        assert solves[0][0] is None
        for (V0, _), (_, last) in zip(solves[1:], solves):
            assert V0 is last[2]
        for _, (_, betas, V, conv, _) in solves:
            # lambda 2 keeps every column in the linear domain
            assert conv.all() and V.shape == (5, len(train) * 4)
            np.testing.assert_allclose(V, np.exp(2.0 * betas.T), rtol=1e-12)

        built.clear()
        solves.clear()
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      shc_max_iter=8, lam=2.0, rmhc_steps=5,
                                      tune=True)
        cell = harness._Cell(small_train(per_class=10), 4, 0, plan, {})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            harness._tune_shc(cell, shc.ShcConfig(max_iter=8, lam=2.0,
                                                  rmhc_steps=5))
        assert len(built) == 1 + 27
        assert [V0 is None for V0, _ in solves] == [
            k in built for k in range(len(solves))]


class TestSinkhornSettings:
    """shc_init and shc_loss_grad solve at their config's sinkhorn_tol and
    sinkhorn_max_iter."""
    TOL, CAP = 1e-5, 1500

    def solves(self, monkeypatch):
        """(name, tol, max_iter) of every sinkhorn_pairwise call that shc
        makes and of every sinkhorn_batch call, shc's own included."""
        seen = []
        for module, name, at in ((shc, "sinkhorn_pairwise", 3),
                                 (shc, "sinkhorn_batch", 4),
                                 (ot, "sinkhorn_batch", 4)):
            def spy(*args, real=getattr(module, name), name=name, at=at,
                    **kwargs):
                seen.append((name,) + args[at:at + 2])
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        return seen

    def check(self, seen, pairwise, batch):
        names = [name for name, _, _ in seen]
        assert names.count("sinkhorn_pairwise") == pairwise
        assert names.count("sinkhorn_batch") == batch
        assert {s[1:] for s in seen} == {(self.TOL, self.CAP)}

    def test_compress(self, monkeypatch):
        seen = self.solves(monkeypatch)
        cfg = shc.ShcConfig(max_iter=4, rmhc_steps=5, sinkhorn_tol=self.TOL,
                            sinkhorn_max_iter=self.CAP)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            shc.shc_compress(small_train(), 4, cfg)
        # the start's matrix; two loss calls at the start, one per step
        self.check(seen, 1, 1 + 2 + cfg.max_iter)

    def test_tuning(self, monkeypatch):
        # the carve-out's start, its gamma^2 grid and every candidate; the
        # validation metric's own solves are not the config's
        seen = self.solves(monkeypatch)
        evaluate = harness.evaluate

        def unseen(*args, **kwargs):
            n = len(seen)
            out = evaluate(*args, **kwargs)
            del seen[n:]
            return out

        monkeypatch.setattr(harness, "evaluate", unseen)
        plan = harness.ExperimentPlan(ratios=(0.2,), methods=("shc",),
                                      shc_max_iter=8, lam=2.0, rmhc_steps=5,
                                      tune=True)
        cell = harness._Cell(small_train(per_class=10), 4, 0, plan, {})
        cfg = shc.ShcConfig(max_iter=8, lam=2.0, rmhc_steps=5,
                            sinkhorn_tol=self.TOL, sinkhorn_max_iter=self.CAP)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            harness._tune_shc(cell, cfg)
        # the start's matrix and D0; 27 candidates, each at its given
        # gamma^2, with one loss call at the start and 10 steps
        self.check(seen, 1, 1 + 1 + 27 * (1 + 10))
