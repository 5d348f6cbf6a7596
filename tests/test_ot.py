import warnings

import numpy as np
import pytest

from knncompress import ot
from knncompress.errors import (
    BadParameters,
    DimensionMismatch,
    InfeasibleMarginals,
    NoConvergence,
    NonFiniteInput,
    NotConverged,
    NumericalError,
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

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_not_positive_finite(self, lam):
        h = np.array([0.5, 0.5])
        with pytest.raises(InfeasibleMarginals):
            ot.sinkhorn(h, h, line_metric(2), lam)

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


    # lam 2 runs the linear domain on line_metric(5); lam 800 underflows
    # exp(-lam*M) and runs the log domain from log v0
    @pytest.mark.parametrize("lam", [2.0, 800.0])
    @pytest.mark.parametrize("bad", [0.0, np.nan, -1.0, np.inf])
    def test_warm_start_not_finite_positive_raises(self, lam, bad):
        h, hp = random_pair(np.random.default_rng(4), 5)
        v0 = np.ones(5)
        v0[2] = bad
        with pytest.raises(BadParameters):
            ot.sinkhorn(h, hp, line_metric(5), lam, v0=v0)
        with pytest.raises(BadParameters):
            ot.sinkhorn_batch(np.stack([h, hp]), hp, line_metric(5), lam,
                              V0=np.column_stack([v0, np.ones(5)]))

    @pytest.mark.parametrize("lam", [2.0, 800.0])
    def test_warm_start_wrong_shape_raises(self, lam):
        h, hp = random_pair(np.random.default_rng(4), 5)
        with pytest.raises(DimensionMismatch):
            ot.sinkhorn(h, hp, line_metric(5), lam, v0=np.ones(4))
        with pytest.raises(DimensionMismatch):
            ot.sinkhorn_batch(np.stack([h, hp]), hp, line_metric(5), lam,
                              V0=np.ones((5, 3)))


class TestLogSumExp:
    """The max-shifted log-sum-exp against scipy's as the oracle."""

    @pytest.mark.parametrize("A, axis", [
        (np.array([3.5]), None),
        (np.array([[[-2.0]]]), 2),
        (np.array([700.0, 699.5, -700.0]), None),
        (np.array([[-700.0, -699.0], [-650.0, 700.0]]), 1),
        (np.array([[[750.0, 749.0]], [[-800.0, -801.0]]]), 2),
        (np.random.default_rng(0).normal(0, 300, (3, 4, 5)), 1),
        (np.random.default_rng(1).normal(0, 300, (3, 4, 5)), 2),
        (np.random.default_rng(2).normal(0, 300, (3, 4, 5)), None),
    ])
    def test_matches_scipy(self, A, axis):
        from scipy.special import logsumexp
        got, want = ot._logsumexp(A, axis), logsumexp(A, axis=axis)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))

    @staticmethod
    def scipy_patched(monkeypatch):
        from scipy.special import logsumexp
        monkeypatch.setattr(ot, "_logsumexp",
                            lambda A, axis: logsumexp(A, axis=axis))

    def test_log_scaling_matches_scipy_reduction(self, monkeypatch):
        # four lam = 200, d = 20 pairs: three converge within 300
        # iterations (58, 93, 209), one stops at the cap
        from knncompress.datasets import gen_histogram_dataset
        data = gen_histogram_dataset(2, 4, 20, 1.0, 1)
        H, M = ot.clamp_histogram(np.stack(data.members)), data.ground_metric
        assert np.any(np.exp(-200.0 * M) == 0.0)

        def solve():
            return [ot._log_scaling(H[[i]].T, H[i + 4], M, 200.0, 1e-6, 300)
                    for i in range(4)]

        ours = solve()
        self.scipy_patched(monkeypatch)
        for (d, _, _, conv, it), (d_ref, _, _, conv_ref, it_ref) in zip(
                ours, solve()):
            assert abs(d[0] - d_ref[0]) <= 1e-12 * abs(d_ref[0])
            assert (it, conv[0]) == (it_ref, conv_ref[0])
        assert sorted(int(conv[0]) for _, _, _, conv, _ in ours) == [0, 1, 1, 1]

    @pytest.mark.parametrize("lam", [10.0, 50.0])
    def test_barycenter_matches_scipy_reduction(self, monkeypatch, lam):
        # lam 10 converges in 178 iterations, lam 50 stops at the cap
        from knncompress.datasets import gen_histogram_dataset
        data = gen_histogram_dataset(2, 4, 20, 1.0, 1)
        members, M = data.members[:4], data.ground_metric

        def solve():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", NoConvergence)
                b = ot.sinkhorn_barycenter(members, M, lam, tol=1e-9,
                                           max_iter=300)
            return b, len(caught)

        ours, warned = solve()
        self.scipy_patched(monkeypatch)
        ref, warned_ref = solve()
        assert np.all(np.abs(ours - ref) <= 1e-12 * np.abs(ref))
        assert warned == warned_ref == (lam == 50.0)


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

    @pytest.mark.parametrize("lam, max_iter", [(2.0, 40), (300.0, 600)])
    def test_column_independent_of_block_mates(self, lam, max_iter):
        # a peaked column converges well within max_iter; one close to hp
        # does not.  At lam = 300 exp(-lam * M) underflows, so both run in
        # the log domain.  The first's distance, beta and flag are those
        # it gets alone, wherever it sits in the block.
        d = 6
        M = line_metric(d)
        hp = np.random.default_rng(11).dirichlet(np.ones(d))
        peaked = ot.clamp_histogram(np.eye(d)[-1] * 0.98 + 0.02 / d)
        slow = 0.9 * hp + 0.1 / d
        alone = ot.sinkhorn_batch(peaked[None], hp, M, lam, tol=1e-9,
                                  max_iter=max_iter)
        assert alone[3][0]
        for H, i in (([peaked, slow], 0), ([slow, peaked], 1)):
            dists, betas, _, conv, _ = ot.sinkhorn_batch(
                np.stack(H), hp, M, lam, tol=1e-9, max_iter=max_iter)
            assert not conv[1 - i]
            assert conv[i]
            np.testing.assert_allclose(dists[i], alone[0][0], rtol=1e-12)
            np.testing.assert_allclose(betas[i], alone[1][0], rtol=1e-12,
                                       atol=1e-12)

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


class TestMatrix:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.M = line_metric(6)
        self.Q = rng.dirichlet(np.ones(6), size=5)
        self.P = rng.dirichlet(np.ones(6), size=3)

    def test_equals_per_column_batches(self):
        D, betas, conv = ot.sinkhorn_matrix(self.Q, self.P, self.M, 2.0,
                                            1e-6, 2000)
        assert D.shape == conv.shape == (5, 3)
        for j, hp in enumerate(self.P):
            dists, b, _, ok, _ = ot.sinkhorn_batch(self.Q, hp, self.M, 2.0,
                                                   1e-6, 2000)
            assert np.array_equal(D[:, j], dists)
            assert np.array_equal(betas[j], b)
            assert np.array_equal(conv[:, j], ok)

    def test_warm_dict_seeds_and_takes_each_column(self):
        warm: dict = {}
        ot.sinkhorn_matrix(self.Q, self.P, self.M, 2.0, 1e-6, 2000, warm)
        assert sorted(warm) == [0, 1, 2]
        P2 = ot.clamp_histogram(self.P + 0.05)
        seeds = {j: V.copy() for j, V in warm.items()}
        D, betas, _ = ot.sinkhorn_matrix(self.Q, P2, self.M, 2.0, 1e-6, 2000,
                                         warm)
        for j, hp in enumerate(P2):
            dists, b, V, _, _ = ot.sinkhorn_batch(self.Q, hp, self.M, 2.0,
                                                  1e-6, 2000, seeds[j])
            assert np.array_equal(D[:, j], dists)
            assert np.array_equal(betas[j], b)
            assert np.array_equal(warm[j], V)

    def test_empty_side_makes_no_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("sinkhorn_batch called")

        monkeypatch.setattr(ot, "sinkhorn_batch", no_solve)
        assert ot.sinkhorn_matrix([], self.P, self.M, 2.0)[0].shape == (0, 3)
        assert ot.sinkhorn_matrix(self.Q, [], self.M, 2.0)[0].shape == (5, 0)


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

    def test_uniform_on_k_bins_equals_assignment_cost(self):
        # mass 1/k on k bins of each histogram: an optimal plan is a
        # permutation (Birkhoff), so EMD = assignment cost / k
        from scipy.optimize import linear_sum_assignment
        rng = np.random.default_rng(13)
        d, k = 8, 4
        for _ in range(25):
            pts = rng.standard_normal((d, 3))
            M = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            rows = rng.choice(d, k, replace=False)
            cols = rng.choice(d, k, replace=False)
            h, hp = np.zeros(d), np.zeros(d)
            h[rows] = hp[cols] = 1.0 / k
            C = M[np.ix_(rows, cols)]
            want = C[linear_sum_assignment(C)].sum() / k
            assert ot.emd_exact(h, hp, M) == pytest.approx(want, abs=1e-9)

    def test_mass_within_tolerance_is_renormalized(self):
        rng = np.random.default_rng(23)
        M = line_metric(8)
        h = rng.dirichlet(np.ones(8)) * (1 + 8e-10)
        hp = rng.dirichlet(np.ones(8))
        assert ot.emd_exact(h, hp, M) == pytest.approx(
            ot.emd_exact(h / h.sum(), hp, M), abs=1e-12)

    def test_solver_failure_raises(self, monkeypatch):
        from types import SimpleNamespace
        monkeypatch.setattr(ot, "linprog", lambda *a, **k: SimpleNamespace(
            success=False, message="iteration limit reached"))
        h = np.array([0.25, 0.25, 0.5])
        with pytest.raises(NumericalError):
            ot.emd_exact(h, h, line_metric(3))


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
