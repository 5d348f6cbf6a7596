import warnings

import numpy as np
import pytest

from knncompress import shc
from knncompress.datasets import LabeledDataset, gen_histogram_dataset
from knncompress.errors import NonFiniteInput, TooFewInputs, ValidationError
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
        state = shc.shc_init(train, 4, seed=0, rmhc_steps=0)
        assert state.m == 4
        assert sorted(state.labels.tolist()) == [0, 0, 1, 1]
        protos = state.prototypes()
        for h in protos:
            assert h.sum() == pytest.approx(1.0)

    def test_prototypes_near_train_members(self):
        train = small_train()
        state = shc.shc_init(train, 3, seed=1, rmhc_steps=0)
        for h in state.prototypes():
            gaps = [np.abs(h - hm).sum() for hm in train.members]
            assert min(gaps) < 1e-6

    def test_m_too_large(self):
        with pytest.raises(TooFewInputs):
            shc.shc_init(small_train(), 100, seed=0)

    def test_wrong_family(self):
        ds = LabeledDataset(family="covariance", dim=2,
                            members=[np.eye(2)], labels=np.array([0]),
                            metadata={})
        with pytest.raises(ValidationError):
            shc.shc_init(ds, 1, seed=0)


class TestLossGrad:
    def test_gradient_orthogonal_to_ones(self):
        # softmax shift invariance: each prototype's gradient sums to zero
        train, state = fd_instance(0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, g, _ = shc.shc_loss_grad(state, train, sinkhorn_tol=1e-10)
        assert np.max(np.abs(g.sum(axis=1))) < 1e-10

    def test_directional_fd_ten_seeds(self):
        errs = []
        for seed in range(10):
            train, state = fd_instance(seed)
            kw = dict(sinkhorn_tol=1e-12, sinkhorn_max_iter=50000)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, g, _ = shc.shc_loss_grad(state, train, **kw)
                rng = np.random.default_rng(seed + 1000)
                v = rng.standard_normal(state.logits.shape)
                v /= np.linalg.norm(v)
                h = 1e-5

                def at(L):
                    st = shc.ShcState(L, state.labels, 1.0, 100.0)
                    return shc.shc_loss_grad(st, train, **kw)[0]

                fd = (at(state.logits + h * v)
                      - at(state.logits - h * v)) / (2 * h)
            errs.append(abs(fd - np.sum(g * v)) / max(abs(fd), 1e-12))
        assert max(errs) < 5e-2

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
        _, g, _ = shc.shc_loss_grad(state, train, sinkhorn_tol=1e-11,
                                    sinkhorn_max_iter=20000)
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

    def test_diagonal_jacobian_flag_changes_gradient(self):
        train, state = fd_instance(1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, g_full, _ = shc.shc_loss_grad(state, train,
                                             sinkhorn_tol=1e-10)
            _, g_diag, _ = shc.shc_loss_grad(state, train,
                                             sinkhorn_tol=1e-10,
                                             diagonal_jacobian=True)
        assert not np.allclose(g_full, g_diag)
