import numpy as np
import pytest

from knncompress import scc
from knncompress.datasets import LabeledDataset, gen_covariance_dataset
from knncompress.errors import TooFewInputs, ValidationError
from knncompress.knn import loo_train_error
from knncompress.neighborhood import NeighborhoodModel, gradient_coeffs
from knncompress.spd import jbld, jbld_gradient_chol, jbld_matrix


def small_train(seed=0, classes=2, per_class=5, d=3):
    return gen_covariance_dataset(classes=classes, per_class=per_class, d=d,
                                  wishart_dof=20, separation=1.5, seed=seed)


def numeric_grad(state, train, h=1e-6):
    """Central finite differences of the loss over all free entries."""
    d = state.factors[0].shape[0]
    grads = []
    for j in range(state.m):
        G = np.zeros((d, d))
        for a in range(d):
            for b in range(a, d):
                for sgn in (1.0, -1.0):
                    trial = scc.SccState(
                        [B.copy() for B in state.factors],
                        state.labels, state.gamma_sq)
                    trial.factors[j][a, b] += sgn * h
                    loss, _ = scc.scc_loss_grad(trial, train)
                    G[a, b] += sgn * loss / (2 * h)
        grads.append(G)
    return grads


class TestInit:
    def test_stratified_labels(self):
        train = small_train()
        state = scc.scc_init(train, 4, seed=0)
        assert state.m == 4
        assert sorted(state.labels.tolist()) == [0, 0, 1, 1]
        for B in state.factors:
            assert np.allclose(np.tril(B, -1), 0)
            assert np.all(np.diag(B) > 0)

    def test_prototypes_are_train_members(self):
        train = small_train()
        state = scc.scc_init(train, 2, seed=3)
        for P in state.prototypes():
            assert any(np.allclose(P, X, atol=1e-10) for X in train.members)

    def test_m_too_large(self):
        with pytest.raises(TooFewInputs):
            scc.scc_init(small_train(), 11, seed=0)

    def test_wrong_family(self):
        M = np.ones((3, 3)) - np.eye(3)
        ds = LabeledDataset(family="histogram", dim=3,
                            members=[np.ones(3) / 3], labels=np.array([0]),
                            ground_metric=M, metadata={})
        with pytest.raises(ValidationError):
            scc.scc_init(ds, 1, seed=0)


class TestDistanceMatrix:
    def test_matches_jbld(self):
        train = small_train()
        state = scc.scc_init(train, 3, seed=1)
        D = scc.jbld_midpoints(state.factors, train.members)[0]
        protos = state.prototypes()
        for i, X in enumerate(train.members):
            for j, P in enumerate(protos):
                assert D[i, j] == pytest.approx(jbld(X, P), abs=1e-10)

    def test_matches_jbld_matrix(self):
        train = small_train(seed=3)
        state = scc.scc_init(train, 4, seed=2)
        D = scc.jbld_midpoints(state.factors, train.members)[0]
        ref = jbld_matrix(train.members, state.prototypes())
        # relative to the largest entry: the prototypes are members, so
        # their own distances are rounding-level zeros
        assert np.max(np.abs(D - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_tril_inv_matches_inv(self):
        rng = np.random.default_rng(0)
        L = np.tril(rng.standard_normal((4, 6, 5, 5)), -1)
        L += np.eye(5) * rng.uniform(0.5, 2.0, (4, 6, 1, 5))
        assert np.allclose(scc._tril_inv(L), np.linalg.inv(L),
                           rtol=1e-12, atol=1e-12)


class TestLossGrad:
    def test_saturated_gradient_zero(self):
        train = small_train(seed=5)
        state = scc.scc_init(train, 2, seed=0)
        state.gamma_sq = 1e4
        _, grads = scc.scc_loss_grad(state, train)
        if loo_error_free(state, train):
            assert max(np.max(np.abs(G)) for G in grads) < 1e-4

    def test_gradient_matches_per_pair(self):
        train = small_train(seed=3)
        state = scc.scc_init(train, 4, seed=2)
        state.gamma_sq = 2.0
        _, grads = scc.scc_loss_grad(state, train)
        D = jbld_matrix(train.members, state.prototypes())
        C = gradient_coeffs(NeighborhoodModel(
            state.gamma_sq, state.labels, train.labels, D))
        for j, B in enumerate(state.factors):
            ref = sum(C[i, j] * jbld_gradient_chol(X, B)
                      for i, X in enumerate(train.members))
            assert np.allclose(grads[j], ref, rtol=1e-10, atol=1e-10)

    def test_tiny_instance_fd(self):
        train = small_train(seed=7, classes=2, per_class=1, d=1)
        state = scc.scc_init(train, 2, seed=0)
        state.gamma_sq = 1.0
        _, grads = scc.scc_loss_grad(state, train)
        fd = numeric_grad(state, train)
        for G, F in zip(grads, fd):
            assert np.allclose(G, F, rtol=1e-5, atol=1e-9)

    def test_full_instance_fd(self):
        train = small_train(seed=11, classes=2, per_class=5, d=3)
        state = scc.scc_init(train, 4, seed=2)
        for gsq in (0.1, 1.0, 10.0):
            state.gamma_sq = gsq
            _, grads = scc.scc_loss_grad(state, train)
            fd = numeric_grad(state, train)
            for G, F in zip(grads, fd):
                rel = np.abs(G - F) / np.maximum(np.abs(F), 1e-6)
                assert np.max(rel[np.triu_indices(3)]) < 1e-4


def loo_error_free(state, train):
    D = scc.jbld_midpoints(state.factors, train.members)[0]
    pred = state.labels[np.argmin(D, axis=1)]
    return np.array_equal(pred, train.labels)


class TestCompress:
    def test_loss_improves_and_spd(self):
        train = small_train(seed=13, classes=3, per_class=8, d=3)
        state = scc.scc_compress(train, 6, scc.SccConfig(max_iter=30, seed=0))
        assert state.loss_history[-1] <= state.loss_history[0] + 1e-12
        for P in state.prototypes():
            np.linalg.cholesky(P)  # must not raise

    def test_deterministic(self):
        train = small_train(seed=17)
        cfg = scc.SccConfig(max_iter=15, seed=4)
        a = scc.scc_compress(train, 4, cfg)
        b = scc.scc_compress(train, 4, cfg)
        for Ba, Bb in zip(a.factors, b.factors):
            assert np.array_equal(Ba, Bb)
        assert a.loss_history == b.loss_history

    def test_label_relabeling_invariance(self):
        train = small_train(seed=19, classes=3, per_class=6, d=3)
        perm = {0: 2, 1: 0, 2: 1}
        relabeled = LabeledDataset(
            family=train.family, dim=train.dim, members=train.members,
            labels=np.array([perm[c] for c in train.labels]),
            metadata=train.metadata)
        cfg = scc.SccConfig(max_iter=15, seed=1)
        a = scc.scc_compress(train, 5, cfg)
        b = scc.scc_compress(relabeled, 5, cfg)
        assert np.allclose(a.loss_history, b.loss_history)

    def test_fixed_gamma_respected(self):
        train = small_train(seed=23)
        state = scc.scc_compress(
            train, 2, scc.SccConfig(max_iter=5, gamma_sq=3.5, seed=0))
        assert state.gamma_sq == 3.5

    def test_reduces_loo_error_vs_init(self):
        train = small_train(seed=29, classes=3, per_class=10, d=3)
        init = scc.scc_init(train, 6, seed=0)
        final = scc.scc_compress(train, 6,
                                 scc.SccConfig(max_iter=40, seed=0))
        init.gamma_sq = final.gamma_sq
        li, _ = scc.scc_loss_grad(init, train)
        lf, _ = scc.scc_loss_grad(final, train)
        assert lf <= li + 1e-12

    @pytest.mark.parametrize("m", [4, 12])
    def test_jitter_factorable_member(self, m):
        # all-ones is singular but passes spd.logdet's jitter retry, so
        # LabeledDataset accepts it; SCC must start from it too
        train = gen_covariance_dataset(2, 6, 3, 5, 1.0, 0)
        train.members[0] = np.ones((3, 3))
        state = scc.scc_compress(train, m, scc.SccConfig(max_iter=3, seed=0))
        assert np.all(np.isfinite(state.loss_history))
        for P in state.prototypes():
            np.linalg.cholesky(P)  # must not raise

    @pytest.mark.parametrize("part", ["loss", "grad"])
    def test_non_finite_trial_point_rejected(self, part, monkeypatch):
        train = small_train()
        calls, orig = [0], scc.scc_loss_grad

        def poisoned(state, tr):
            loss, grads = orig(state, tr)
            calls[0] += 1
            if calls[0] == 2:  # the first trial point of the first step
                if part == "loss":
                    return np.nan, grads
                return loss, np.full_like(grads, np.nan)
            return loss, grads

        monkeypatch.setattr(scc, "scc_loss_grad", poisoned)
        state = scc.scc_compress(train, 4, scc.SccConfig(max_iter=15, seed=0))
        assert calls[0] > 2
        assert np.all(np.isfinite(state.loss_history))
