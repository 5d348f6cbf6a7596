import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from knncompress import scc
from knncompress.datasets import LabeledDataset, gen_covariance_dataset
from knncompress.errors import (
    BadParameters, NotPositiveDefinite, TooFewInputs, ValidationError)
from knncompress.neighborhood import assign, gradient_coeffs, kl_loss
from knncompress.spd import (
    chol_logdets, chol_logdets_last, jbld, jbld_gradient_chol, jbld_matrix,
    tril_inv, tril_inv_last)


def small_train(seed=0, classes=2, per_class=5, d=3):
    return gen_covariance_dataset(classes=classes, per_class=per_class, d=d,
                                  wishart_dof=20, separation=1.5, seed=seed)


def midpoints_reference(B, X):
    """The distances and inverse midpoint factors as the loss computed them
    before SccObjective: every stack allocated afresh, every member
    factored again."""
    S = B.transpose(0, 2, 1) @ B
    Xh = np.ascontiguousarray(0.5 * X.transpose(1, 2, 0))
    mid = np.empty(B.shape[1:] + (len(B), len(X)))
    np.add(Xh[:, :, None], (0.5 * S).transpose(1, 2, 0)[..., None], out=mid)
    L, ld_mid = chol_logdets_last(mid)
    # the factors overwrote mid's lower triangle; the inverse reads a
    # lower-triangular copy
    Linv = tril_inv_last(L * np.tri(len(L))[:, :, None, None])
    ld_S = 2.0 * np.log(np.abs(np.diagonal(B, axis1=1, axis2=2))).sum(axis=1)
    D = ld_mid - 0.5 * (chol_logdets(X)[1] + ld_S[:, None])
    return np.ascontiguousarray(D.T), Linv


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
                        state.factors.copy(),
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
        D = scc.jbld_distance_matrix(state.factors, train.members)
        protos = state.prototypes()
        for i, X in enumerate(train.members):
            for j, P in enumerate(protos):
                assert D[i, j] == pytest.approx(jbld(X, P), abs=1e-10)

    def test_matches_jbld_matrix(self):
        train = small_train(seed=3)
        state = scc.scc_init(train, 4, seed=2)
        D = scc.jbld_distance_matrix(state.factors, train.members)
        ref = jbld_matrix(train.members, state.prototypes())
        # relative to the largest entry: the prototypes are members, so
        # their own distances are rounding-level zeros
        assert np.max(np.abs(D - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_gamma_selection_reads_the_loss_distances(self, monkeypatch):
        train = small_train(seed=3)
        state = scc.scc_init(train, 4, seed=2)
        seen = []
        monkeypatch.setattr(scc, "assign", lambda D, match, g: (
            seen.append(D) or assign(D, match, g)))
        scc.scc_loss_grad(state, train)
        assert np.array_equal(
            scc.jbld_distance_matrix(state.factors, train.members), seen[0])


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
        match = train.labels[:, None] == state.labels[None, :]
        C = gradient_coeffs(*assign(D, match, state.gamma_sq), match,
                            state.gamma_sq)
        for j, B in enumerate(state.factors):
            ref = sum(C[i, j] * jbld_gradient_chol(X, B)
                      for i, X in enumerate(train.members))
            assert np.allclose(grads[j], ref, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_equals_full_inverse_reference(self, seed):
        # the gradient as it was written with every B_j^-T in full
        def reference(state, train):
            B = state.factors
            D, Linv = midpoints_reference(B, train.members)
            match = train.labels[:, None] == state.labels[None, :]
            probs, correct = assign(D, match, state.gamma_sq)
            C = gradient_coeffs(probs, correct, match, state.gamma_sq).T
            V = np.zeros_like(B)
            for k in range(B.shape[1]):
                R = Linv[k, :k + 1]
                V[:, :k + 1, :k + 1] += (R.transpose(1, 0, 2)
                                         @ (R * C).transpose(1, 2, 0))
            Binv_T = tril_inv(B.transpose(0, 2, 1))
            G = B @ V - C.sum(axis=1)[:, None, None] * Binv_T
            return kl_loss(correct), np.triu(G)

        train = small_train(seed=seed, classes=3, per_class=6, d=4)
        state = scc.scc_init(train, 5, seed=seed)
        rng = np.random.default_rng(seed)
        for factors in (state.factors, state.factors + 0.05 * np.triu(
                rng.standard_normal(state.factors.shape))):
            trial = scc.SccState(factors, state.labels, 1.5)
            loss, G = scc.scc_loss_grad(trial, train)
            ref_loss, ref_G = reference(trial, train)
            assert loss == ref_loss
            assert np.array_equal(G, ref_G)

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


class TestObjective:
    def test_calls_write_into_the_objectives_buffers(self, monkeypatch):
        train = small_train(seed=3, classes=3, per_class=6, d=4)
        state = scc.scc_init(train, 5, seed=1)
        objective = scc.SccObjective(train.members, 5)
        L, work = objective.L, objective.work
        seen, chol, inv = [], scc.chol_logdets_last, scc.tril_inv_last

        def chol_spy(S, *buffers):
            out = chol(S, *buffers)
            seen.append((S, out[0]) + buffers)
            return out

        def inv_spy(M, *buffers):
            seen.append((M, inv(M, *buffers)) + buffers)
            return seen[-1][1]

        monkeypatch.setattr(scc, "chol_logdets_last", chol_spy)
        monkeypatch.setattr(scc, "tril_inv_last", inv_spy)
        for factors in (state.factors, 1.1 * state.factors):
            scc.scc_loss_grad(scc.SccState(factors, state.labels, 1.5),
                              train, objective)
        assert len(seen) == 4  # one factorization, one inverse per call
        # the factors and the inverse are both written over L in place
        assert all(S is L and out is L and w is work for S, out, w in seen)
        assert objective.L is L and objective.work is work
        # the strict upper triangle of every factor stays exactly zero
        assert not np.triu(np.moveaxis(L, (0, 1), (-2, -1)), 1).any()

    def test_equals_a_fresh_objective_at_every_point(self, monkeypatch):
        train = small_train(seed=3, classes=3, per_class=6, d=4)
        seen, orig = {}, scc.ncg_minimize

        def spy(fg, x0, **kwargs):
            seen["fg"] = fg
            return orig(fg, x0, **kwargs)

        monkeypatch.setattr(scc, "ncg_minimize", spy)
        state = scc.scc_compress(train, 5, scc.SccConfig(max_iter=2, seed=1))
        rng = np.random.default_rng(1)
        good = state.factors + 0.05 * np.triu(
            rng.standard_normal(state.factors.shape))
        bad = good.copy()
        bad[0, 0, 1] = 1e300  # B_0' B_0 overflows: no midpoint factors
        objective = scc.SccObjective(train.members, 5)
        with np.errstate(all="ignore"):
            for factors in (state.factors, bad, good):
                trial = scc.SccState(factors, state.labels, state.gamma_sq)
                if factors is bad:
                    for obj in ((), (objective,)):
                        with pytest.raises(NotPositiveDefinite):
                            scc.scc_loss_grad(trial, train, *obj)
                    continue
                loss, G = scc.scc_loss_grad(trial, train)
                got_loss, got_G = scc.scc_loss_grad(trial, train, objective)
                assert got_loss == loss and np.array_equal(got_G, G)
        # the run's own objective, through fg: (inf, 0) at the point that
        # does not factor, and the fresh objective's values after it
        loss_bad, g_bad = seen["fg"](bad.ravel())
        assert loss_bad == np.inf and not g_bad.any()
        got_loss, got_g = seen["fg"](good.ravel())
        assert got_loss == loss and np.array_equal(got_g, G.ravel())

    # scc_compress(small_train(seed=13, classes=3, per_class=8), 6,
    # SccConfig(max_iter=8, seed=0)).loss_history, recorded when every loss
    # call still built its stacks afresh; the arithmetic is unchanged, so
    # the same numpy and BLAS reproduce it bit for bit
    LOSS_HISTORY = [0.008966111483514429, 0.0020880596488389333,
                    0.0006463175729282441, 0.00029879516626003214,
                    0.00021028445049893276, 4.0772918591894806e-05,
                    1.6577610687119215e-05, 7.205944196854664e-06,
                    6.124853412046975e-06]

    def test_one_objective_per_run_keeps_the_loss_history(self, monkeypatch):
        objectives, orig = [], scc.scc_loss_grad

        def spy(state, tr, *objective):
            objectives.extend(objective)
            return orig(state, tr, *objective)

        monkeypatch.setattr(scc, "scc_loss_grad", spy)
        state = scc.scc_compress(small_train(seed=13, classes=3, per_class=8),
                                 6, scc.SccConfig(max_iter=8, seed=0))
        assert len(objectives) > 8
        assert all(obj is objectives[0] for obj in objectives)
        assert np.array_equal(state.loss_history, self.LOSS_HISTORY)


def loo_error_free(state, train):
    D = scc.jbld_distance_matrix(state.factors, train.members)
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

    @pytest.mark.parametrize("gamma_sq, calls", [(3.5, 0), (None, 1)])
    def test_gamma_selection_matrix_only_when_selecting(
            self, gamma_sq, calls, monkeypatch):
        made, orig = [], scc.jbld_distance_matrix
        monkeypatch.setattr(scc, "jbld_distance_matrix",
                            lambda *a: made.append(1) or orig(*a))
        scc.scc_compress(small_train(seed=23), 2,
                         scc.SccConfig(max_iter=2, gamma_sq=gamma_sq, seed=0))
        assert len(made) == calls

    def test_descents_share_a_start_and_objective(self):
        # the start is not changed and the objective's buffers are written
        # afresh on every call, so a second descent repeats the first, and
        # both repeat scc_compress, which builds its own
        train = small_train(seed=17)
        cfg = scc.SccConfig(max_iter=15, seed=4)
        start = scc.scc_init(train, 4, cfg.seed)
        factors = start.factors.copy()
        objective = scc.SccObjective(train.members, 4)
        a = scc.descend(start, train, cfg, objective)
        b = scc.descend(start, train, cfg, objective)
        want = scc.scc_compress(train, 4, cfg)
        assert np.array_equal(start.factors, factors)
        assert start.gamma_sq == 1.0 and start.loss_history == []
        for got in (a, b):
            assert np.array_equal(got.factors, want.factors)
            assert np.array_equal(got.labels, want.labels)
            assert got.gamma_sq == want.gamma_sq
            assert got.loss_history == want.loss_history

    def test_reduces_loo_error_vs_init(self):
        train = small_train(seed=29, classes=3, per_class=10, d=3)
        init = scc.scc_init(train, 6, seed=0)
        final = scc.scc_compress(train, 6,
                                 scc.SccConfig(max_iter=40, seed=0))
        init.gamma_sq = final.gamma_sq
        li, _ = scc.scc_loss_grad(init, train)
        lf, _ = scc.scc_loss_grad(final, train)
        assert lf <= li + 1e-12

    def test_every_factor_stack_stays_upper_triangular(self, monkeypatch):
        # SccObjective.distances reads log|B_j' B_j| from B_j's diagonal
        seen, orig = [], scc.scc_loss_grad

        def spy(state, tr, *objective):
            seen.append(not np.tril(state.factors, -1).any())
            return orig(state, tr, *objective)

        monkeypatch.setattr(scc, "scc_loss_grad", spy)
        state = scc.scc_compress(small_train(seed=13, classes=3, per_class=8),
                                 6, scc.SccConfig(max_iter=30, seed=0))
        assert len(seen) > 30 and all(seen)
        assert not np.tril(state.factors, -1).any()

    @pytest.mark.parametrize("field, value", [
        ("max_iter", -1), ("max_iter", 2.5), ("seed", -1), ("seed", 2.5),
        ("gamma_sq", 0.0), ("gamma_sq", -1.0), ("gamma_sq", np.nan),
        ("gamma_sq", np.inf), ("seed", False), ("gamma_sq", "x")])
    def test_config_out_of_range_rejected_before_any_step(
            self, field, value, monkeypatch):
        # max_iter -1 used to return the start and 2.5 to run 3 steps, and
        # a negative seed ended in numpy's ValueError.  The config is
        # checked when it is built, tuning's replace()d candidates too.
        calls = []
        monkeypatch.setattr(scc, "scc_loss_grad",
                            lambda *a: calls.append(1))
        with pytest.raises(BadParameters, match=field):
            scc.scc_compress(small_train(), 2, scc.SccConfig(
                **{"max_iter": 3, field: value}))
        with pytest.raises(BadParameters, match=field):
            replace(scc.SccConfig(), **{field: value})
        with pytest.raises(FrozenInstanceError):  # nor set afterwards
            setattr(scc.SccConfig(), field, value)
        assert calls == []

    def test_rejected_start_is_an_input_error(self):
        # singular, but plain Cholesky passes on a last pivot of 4e-16
        # that fg's conditioning floor rejects: no finite start point
        train = LabeledDataset(family="covariance", dim=2,
                               members=np.full((2, 2, 2), 2.0),
                               labels=np.array([0, 1]))
        with pytest.raises(ValidationError, match="rejects"):
            scc.scc_compress(train, 2, scc.SccConfig(max_iter=3))

    @pytest.mark.parametrize("part", ["loss", "grad"])
    def test_non_finite_trial_point_rejected(self, part, monkeypatch):
        train = small_train()
        calls, orig = [0], scc.scc_loss_grad

        def poisoned(state, tr, *objective):
            loss, grads = orig(state, tr, *objective)
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

    @pytest.mark.parametrize("value", [np.inf, np.nan, 1e300])
    def test_non_finite_or_overflowing_factor_rejected(self, value,
                                                       monkeypatch):
        train = small_train()
        seen, orig = {}, scc.ncg_minimize

        def spy(fg, x0, **kwargs):
            seen["fg"], seen["x0"] = fg, x0
            return orig(fg, x0, **kwargs)

        monkeypatch.setattr(scc, "ncg_minimize", spy)
        scc.scc_compress(train, 4, scc.SccConfig(max_iter=1, seed=0))
        x = seen["x0"].copy()
        x[1] = value  # entry (0, 1) of the first factor, off the diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, g = seen["fg"](x)
        assert loss == np.inf
        assert np.array_equal(g, np.zeros_like(x))
