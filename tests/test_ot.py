import numpy as np
import pytest

from knncompress import ot
from knncompress.errors import (
    DimensionMismatch,
    InfeasibleMarginals,
    NonFiniteInput,
    NotConverged,
)


def line_metric(d):
    idx = np.arange(d, dtype=float)
    return np.abs(idx[:, None] - idx[None, :])


def random_pair(rng, d, alpha=1.0):
    return (ot.clamp_histogram(rng.dirichlet([alpha] * d)),
            ot.clamp_histogram(rng.dirichlet([alpha] * d)))


def emd_line_closed_form(h, hp):
    """EMD under |i - j| cost is the L1 distance between the CDFs."""
    return float(np.abs(np.cumsum(h) - np.cumsum(hp))[:-1].sum())


class TestValidation:
    def test_negative_mass(self):
        with pytest.raises(InfeasibleMarginals):
            ot.check_histogram(np.array([1.5, -0.5]))

    def test_mass_not_one(self):
        with pytest.raises(InfeasibleMarginals):
            ot.check_histogram(np.array([0.3, 0.3]))

    def test_metric_nonzero_diagonal(self):
        with pytest.raises(InfeasibleMarginals):
            ot.check_ground_metric(np.ones((2, 2)))

    def test_metric_non_finite(self):
        M = line_metric(3)
        M[0, 2] = M[2, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            ot.check_ground_metric(M)

    def test_metric_asymmetric(self):
        M = line_metric(3)
        M[0, 2] = 3.0
        with pytest.raises(InfeasibleMarginals):
            ot.check_ground_metric(M)

    def test_metric_dim(self):
        with pytest.raises(DimensionMismatch):
            ot.check_ground_metric(line_metric(3), dim=4)

    def test_clamp(self):
        h = ot.clamp_histogram(np.array([1.0, 0.0, 0.0]))
        assert np.all(h > 0.5 * ot.CLAMP_EPS)
        assert h.sum() == pytest.approx(1.0)


class TestSinkhorn:
    def test_self_distance_small(self):
        rng = np.random.default_rng(0)
        h, _ = random_pair(rng, 5)
        sol = ot.sinkhorn(h, h, line_metric(5), lam=100.0)
        assert sol.converged
        assert 0.0 <= sol.distance < 1e-2

    def test_marginals(self):
        rng = np.random.default_rng(1)
        h, hp = random_pair(rng, 6)
        sol = ot.sinkhorn(h, hp, line_metric(6), lam=50.0, tol=1e-11)
        assert np.abs(sol.transport.sum(axis=1) - h).sum() < 1e-9
        assert np.abs(sol.transport.sum(axis=0) - hp).sum() < 1e-9

    def test_two_bins_hand_value(self):
        # mass 0.25 must move one unit of ground distance
        h = np.array([0.75, 0.25])
        hp = np.array([0.5, 0.5])
        sol = ot.sinkhorn(h, hp, line_metric(2), lam=200.0, tol=1e-12)
        assert sol.distance == pytest.approx(0.25, abs=1e-3)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        h, hp = random_pair(rng, 4)
        M = line_metric(4)
        a = ot.sinkhorn(h, hp, M, lam=80.0, tol=1e-11).distance
        b = ot.sinkhorn(hp, h, M, lam=80.0, tol=1e-11).distance
        assert a == pytest.approx(b, abs=1e-8)

    def test_log_domain_fallback_matches(self):
        rng = np.random.default_rng(3)
        h, hp = random_pair(rng, 5)
        M = line_metric(5)
        # lam * max(M) = 600: `lin` runs the linear-domain loop, `log` the
        # log-domain loop on the same pair
        lin = ot.sinkhorn(h, hp, M, lam=150.0, tol=1e-11, max_iter=50000)
        log, _, _, _, _ = ot._log_scaling(h[:, None], hp, M, 150.0, 1e-11,
                                          50000)
        assert lin.distance == pytest.approx(log[0], abs=1e-6)
        # lam * max(M) = 1000 underflows exp(-lam*M), forcing the fallback
        big = ot.sinkhorn(h, hp, M, lam=250.0, tol=1e-9, max_iter=100000)
        assert big.converged
        assert big.distance <= lin.distance + 1e-9

    def test_warm_start_same_answer(self):
        rng = np.random.default_rng(4)
        h, hp = random_pair(rng, 5)
        M = line_metric(5)
        cold = ot.sinkhorn(h, hp, M, lam=60.0, tol=1e-11)
        u0 = np.exp(cold.dual_beta * 60.0)
        warm = ot.sinkhorn(h, hp, M, lam=60.0, tol=1e-11, v0=u0)
        assert warm.distance == pytest.approx(cold.distance, abs=1e-9)
        assert warm.iterations <= cold.iterations


class TestGradDual:
    def test_symmetric_pair_centered_zero(self):
        rng = np.random.default_rng(0)
        h, _ = random_pair(rng, 4)
        sol = ot.sinkhorn(h, h, line_metric(4), lam=100.0, tol=1e-11)
        assert np.max(np.abs(ot.sinkhorn_grad_dual(sol))) < 1e-6

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(5)
        h, hp = random_pair(rng, 4)
        sol = ot.sinkhorn(h, hp, line_metric(4), lam=100.0, tol=1e-11)
        g = ot.sinkhorn_grad_dual(sol)
        sol.dual_beta = sol.dual_beta + 3.7
        assert np.allclose(ot.sinkhorn_grad_dual(sol), g)

    def test_directional_fd(self):
        rng = np.random.default_rng(6)
        d = 4
        pts = rng.standard_normal((d, 2))
        M = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        M = M / M.max() * 2.0
        h, hp = random_pair(rng, d, alpha=2.0)
        v = rng.standard_normal(d)
        v -= v.mean()  # tangent to the simplex
        v /= np.linalg.norm(v)
        sol = ot.sinkhorn(h, hp, M, lam=100.0, tol=1e-12, max_iter=50000)
        g = ot.sinkhorn_grad_dual(sol)
        s = 1e-6
        dp = ot.sinkhorn(h, hp + s * v, M, 100.0, tol=1e-12,
                         max_iter=50000).distance
        dm = ot.sinkhorn(h, hp - s * v, M, 100.0, tol=1e-12,
                         max_iter=50000).distance
        fd = (dp - dm) / (2 * s)
        assert abs(fd - g @ v) / max(abs(fd), 1e-12) < 5e-3

    def test_not_converged_raises(self):
        sol = ot.SinkhornSolution(0.0, np.eye(2), np.zeros(2), np.zeros(2),
                                  10, False)
        with pytest.raises(NotConverged):
            ot.sinkhorn_grad_dual(sol)


class TestBatch:
    def test_matches_single_calls(self):
        rng = np.random.default_rng(6)
        d, n = 5, 7
        M = line_metric(d)
        H = np.stack([ot.clamp_histogram(rng.dirichlet(np.ones(d)))
                      for _ in range(n)])
        hp = ot.clamp_histogram(rng.dirichlet(np.ones(d)))
        dists, betas, V, conv, _ = ot.sinkhorn_batch(H, hp, M, lam=50.0,
                                                     tol=1e-11)
        assert conv.all()
        for i in range(n):
            sol = ot.sinkhorn(H[i], hp, M, lam=50.0, tol=1e-11)
            assert dists[i] == pytest.approx(sol.distance, abs=1e-8)
            bc = betas[i] - betas[i].mean()
            sc = sol.dual_beta - sol.dual_beta.mean()
            assert np.allclose(bc, sc, atol=1e-6)

    def test_underflow_matches_single_calls(self):
        # lam * max(M) = 900 underflows exp(-lam*M): the whole block runs
        # in the log domain, where single pairs do too
        rng = np.random.default_rng(8)
        d, n, lam = 4, 4, 300.0
        M = line_metric(d)
        assert np.any(np.exp(-lam * M) == 0.0)
        H = np.stack([ot.clamp_histogram(rng.dirichlet(np.ones(d)))
                      for _ in range(n)])
        hp = ot.clamp_histogram(rng.dirichlet(np.ones(d)))
        dists, betas, V, conv, _ = ot.sinkhorn_batch(H, hp, M, lam, tol=1e-9,
                                                     max_iter=100000)
        assert conv.all()
        assert np.all(V == 1.0)
        for i in range(n):
            sol = ot.sinkhorn(H[i], hp, M, lam, tol=1e-9, max_iter=100000)
            assert sol.converged
            assert dists[i] == pytest.approx(sol.distance, abs=1e-8)
            bc = betas[i] - betas[i].mean()
            sc = sol.dual_beta - sol.dual_beta.mean()
            assert np.allclose(bc, sc, atol=1e-6)

    def test_non_finite_column_solved_in_log_domain(self, monkeypatch):
        # lam * max(M) = 740: K does not underflow, but moving the point
        # mass at bin 2 to bin 0 drives that column's scalings out of
        # range; only it is solved again, in the log domain
        d, lam = 3, 370.0
        M = line_metric(d)
        assert np.all(np.exp(-lam * M) > 0.0)
        hp = ot.clamp_histogram(np.eye(d)[0])
        H = ot.clamp_histogram(np.vstack([np.eye(d), np.full(d, 1 / d)]))
        redone = []
        log_scaling = ot._log_scaling

        def spy(HT, *args):
            redone.append(HT.shape[1])
            return log_scaling(HT, *args)

        monkeypatch.setattr(ot, "_log_scaling", spy)
        dists, _, _, conv, _ = ot.sinkhorn_batch(H, hp, M, lam, tol=1e-9,
                                                 max_iter=20000)
        assert redone == [1]
        assert conv.all()
        for i in range(len(H)):
            sol = ot.sinkhorn(H[i], hp, M, lam, tol=1e-9, max_iter=20000)
            assert dists[i] == pytest.approx(sol.distance, abs=1e-8)

    @pytest.mark.parametrize("row", [np.array([0.7, -0.1, 0.4]),
                                     np.array([0.5, 0.3, 0.3]),
                                     np.array([np.nan, 0.5, 0.5])])
    def test_bad_row_in_stack_raises(self, row):
        rng = np.random.default_rng(9)
        H = np.stack([rng.dirichlet(np.ones(3)) for _ in range(4)])
        H[2] = row
        with pytest.raises(InfeasibleMarginals):
            ot.sinkhorn_batch(H, np.full(3, 1 / 3), line_metric(3), 5.0)
        with pytest.raises(InfeasibleMarginals):
            ot.check_histograms(H)

    def test_stack_clamp_equals_per_row(self):
        rng = np.random.default_rng(10)
        H = rng.dirichlet(np.full(20, 0.05), size=30)
        # the per-row arithmetic the batched clamp replaced
        want = np.stack([np.maximum(h, ot.CLAMP_EPS)
                         / np.maximum(h, ot.CLAMP_EPS).sum() for h in H])
        assert np.array_equal(ot.clamp_histogram(ot.check_histograms(H)), want)

    def test_pairwise_symmetric_zero_diag(self):
        rng = np.random.default_rng(7)
        H = np.stack([ot.clamp_histogram(rng.dirichlet(np.ones(4)))
                      for _ in range(5)])
        D = ot.sinkhorn_pairwise(H, line_metric(4), lam=50.0)
        assert np.allclose(D, D.T)
        assert np.allclose(np.diag(D), 0.0)
        assert np.all(D[~np.eye(5, dtype=bool)] > 0)


class TestEmdExact:
    def test_identical(self):
        h = np.array([0.25, 0.25, 0.5])
        assert ot.emd_exact(h, h, line_metric(3)) == pytest.approx(0.0,
                                                                   abs=1e-12)

    def test_unit_mass_move(self):
        h = np.array([1.0, 0.0, 0.0])
        hp = np.array([0.0, 0.0, 1.0])
        assert ot.emd_exact(h, hp, line_metric(3)) == pytest.approx(2.0)

    def test_matches_cdf_closed_form(self):
        rng = np.random.default_rng(11)
        M = line_metric(8)
        for _ in range(100):
            h = rng.dirichlet(np.ones(8))
            hp = rng.dirichlet(np.ones(8))
            got = ot.emd_exact(h, hp, M)
            want = emd_line_closed_form(h, hp)
            assert got == pytest.approx(want, abs=1e-10)

    def test_general_metric_against_scipy_lp(self):
        from scipy.optimize import linprog
        rng = np.random.default_rng(13)
        d = 5
        for _ in range(20):
            pts = rng.standard_normal((d, 3))
            M = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            h = rng.dirichlet(np.ones(d))
            hp = rng.dirichlet(np.ones(d))
            A_eq = np.zeros((2 * d, d * d))
            for i in range(d):
                A_eq[i, i * d:(i + 1) * d] = 1.0
                A_eq[d + i, i::d] = 1.0
            res = linprog(M.ravel(), A_eq=A_eq[:-1],
                          b_eq=np.concatenate([h, hp])[:-1],
                          bounds=(0, None), method="highs")
            assert res.success
            assert ot.emd_exact(h, hp, M) == pytest.approx(res.fun, abs=1e-9)


class TestSinkhornEmdGap:
    def test_upper_bound_and_monotone(self):
        rng = np.random.default_rng(17)
        M = line_metric(6)
        lams = [5.0, 20.0, 80.0, 200.0]
        for _ in range(20):
            h = ot.clamp_histogram(rng.dirichlet(np.ones(6)))
            hp = ot.clamp_histogram(rng.dirichlet(np.ones(6)))
            emd = ot.emd_exact(h, hp, M)
            gaps = []
            for lam in lams:
                ds = ot.sinkhorn(h, hp, M, lam, tol=1e-11,
                                 max_iter=100000).distance
                gaps.append(ds - emd)
            assert gaps[-1] > -1e-6
            for a, b in zip(gaps, gaps[1:]):
                assert b <= a + 1e-9


class TestBarycenter:
    def test_single_member_recovered(self):
        rng = np.random.default_rng(19)
        h = ot.clamp_histogram(rng.dirichlet(np.ones(5)))
        bar = ot.sinkhorn_barycenter([h], line_metric(5), lam=50.0)
        assert np.abs(bar - h).sum() < 1e-3

    def test_objective_beats_members(self):
        M = line_metric(6)
        for seed in (19, 23):
            rng = np.random.default_rng(seed)
            members = [ot.clamp_histogram(rng.dirichlet(np.ones(6)))
                       for _ in range(2)]
            bar = ot.sinkhorn_barycenter(members, M, lam=30.0)

            def total(x):
                return sum(ot.sinkhorn(x, mb, M, 30.0, tol=1e-10).distance
                           for mb in members)

            best_member = min(total(mb) for mb in members)
            assert total(bar) <= best_member + 1e-6

    def test_on_simplex(self):
        rng = np.random.default_rng(29)
        members = [ot.clamp_histogram(rng.dirichlet(np.ones(4)))
                   for _ in range(3)]
        bar = ot.sinkhorn_barycenter(members, line_metric(4), lam=40.0)
        assert bar.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(bar >= 0)
