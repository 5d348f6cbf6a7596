import tracemalloc
import warnings

import numpy as np
import pytest

from knncompress import optim, ot
from knncompress.errors import (
    BadParameters,
    DimensionMismatch,
    EmptyInput,
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


def against_one(n):
    """sinkhorn_batch's pairs for n rows against one second marginal."""
    return np.arange(n), np.zeros(n, dtype=int)


def row_by_row(n):
    """sinkhorn_batch's pairs for row k of each side, k < n."""
    return np.arange(n), np.arange(n)


def plain_barycenter(members, M, lam, tol=1e-15, max_iter=20_000):
    """Iterative Bregman projections by scipy's log-sum-exp, stopped once a
    step moves the barycenter by less than tol in L1."""
    from scipy.special import logsumexp
    H, logK = ot.clamp_histogram(np.asarray(members)), -lam * M
    G, b = np.zeros(H.shape), np.full(H.shape[1], 1.0 / H.shape[1])
    for _ in range(max_iter):
        F = np.log(H) - logsumexp(logK[None] + G[:, None, :], axis=2)
        logm = logsumexp(logK.T[None] + F[:, None, :], axis=2)
        logb = logm.mean(axis=0) + G.mean(axis=0)
        logb -= logsumexp(logb)
        G, b_old, b = logb[None] - logm, b, np.exp(logb)
        if np.abs(b - b_old).sum() < tol:
            break
    return b


def emd_line_closed_form(h, hp):
    """EMD under |i - j| cost is the L1 distance between the CDFs."""
    return float(np.abs(np.cumsum(h) - np.cumsum(hp))[:-1].sum())


class TestValidation:
    def test_negative_mass(self):
        with pytest.raises(InfeasibleMarginals):
            ot.check_histograms(np.array([[1.5, -0.5]]))

    def test_mass_not_one(self):
        with pytest.raises(InfeasibleMarginals):
            ot.check_histograms(np.array([[0.3, 0.3]]))

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

    def test_metric_not_square(self):
        with pytest.raises(DimensionMismatch, match="square"):
            ot.check_ground_metric(np.zeros((2, 3)))

    def test_marginal_not_1d(self):
        h = np.full((2, 2), 0.25)
        with pytest.raises(DimensionMismatch, match="1-D"):
            ot.sinkhorn(h, np.array([0.5, 0.5]), line_metric(2), 2.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_lambda_not_positive_finite(self, lam):
        h = np.array([0.5, 0.5])
        with pytest.raises(InfeasibleMarginals):
            ot.sinkhorn(h, h, line_metric(2), lam)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan, np.inf])
    def test_tol_not_positive_finite(self, tol):
        # a NaN or infinite tol used to end every solve after one pass (a
        # distance of 1.092 here, against 2.200 converged), and a tol of 0
        # or less ran every solve to max_iter unconverged
        h = ot.clamp_histogram(np.array([0.7, 0.2, 0.1, 0.0]))
        hp = ot.clamp_histogram(np.array([0.0, 0.1, 0.2, 0.7]))
        M = line_metric(4)
        assert ot.sinkhorn(h, hp, M, 2.0).distance == pytest.approx(
            2.200, abs=1e-3)
        with pytest.raises(BadParameters):
            ot.sinkhorn(h, hp, M, 2.0, tol=tol)
        with pytest.raises(BadParameters):
            ot.sinkhorn_barycenter(np.stack([h, hp]), M, 2.0, tol=tol)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0])
    def test_max_iter_not_an_integer(self, max_iter):
        # a pass count never equals a cap of 2.5: this pair ran 76 passes
        # and reported converged, and at tol 1e-17 it never stopped
        rng = np.random.default_rng(11)
        h, hp = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        M = line_metric(6)
        for cap in (3, np.int64(3)):
            sol = ot.sinkhorn(h, hp, M, 5.0, tol=1e-12, max_iter=cap)
            assert not sol.converged and sol.iterations == 3
        with pytest.raises(BadParameters):
            ot.sinkhorn(h, hp, M, 5.0, tol=1e-12, max_iter=max_iter)
        with pytest.raises(BadParameters):
            ot.sinkhorn_matrix(h[None], hp[None], M, 5.0, 1e-12, max_iter)
        with pytest.raises(BadParameters):
            ot.sinkhorn_barycenter(np.stack([h, hp]), M, 5.0,
                                   max_iter=max_iter)

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
        M = line_metric(6)
        sol = ot.sinkhorn(h, hp, M, lam=50.0, tol=1e-11)
        # the plan from beta and one u-update: its rows sum to h
        K = np.exp(-50.0 * M)
        v = np.exp(50.0 * sol.dual_beta)
        T = (h / (K @ v))[:, None] * K * v[None, :]
        assert np.abs(T.sum(axis=1) - h).sum() < 1e-9
        assert np.abs(T.sum(axis=0) - hp).sum() < 1e-9

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
        log, _, _, _ = ot._log_scaling(h[:, None], hp[:, None], M, 150.0,
                                       1e-11, 50000)
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
        v0 = np.exp(cold.dual_beta * 60.0)
        dists, _, _, _, it = ot.sinkhorn_batch(
            h[None], hp[None], M, lam=60.0, tol=1e-11, V0=v0[:, None],
            pairs=against_one(1))
        assert dists[0] == pytest.approx(cold.distance, abs=1e-9)
        assert it <= cold.iterations


    # lam 2 runs the linear domain on line_metric(5); lam 800 underflows
    # exp(-lam*M) and runs the log domain, which starts cold
    @pytest.mark.parametrize("lam", [2.0, 800.0])
    @pytest.mark.parametrize("bad", [0.0, np.nan, -1.0, np.inf])
    def test_warm_start_not_finite_positive_raises(self, lam, bad):
        h, hp = random_pair(np.random.default_rng(4), 5)
        v0 = np.ones(5)
        v0[2] = bad
        with pytest.raises(BadParameters):
            ot.sinkhorn_batch(h[None], hp[None], line_metric(5), lam,
                              V0=v0[:, None], pairs=against_one(1))
        with pytest.raises(BadParameters):
            ot.sinkhorn_batch(np.stack([h, hp]), hp[None], line_metric(5),
                              lam, V0=np.column_stack([v0, np.ones(5)]),
                              pairs=against_one(2))

    @pytest.mark.parametrize("lam", [2.0, 800.0])
    def test_warm_start_wrong_shape_raises(self, lam):
        h, hp = random_pair(np.random.default_rng(4), 5)
        with pytest.raises(DimensionMismatch):
            ot.sinkhorn_batch(h[None], hp[None], line_metric(5), lam,
                              V0=np.ones((4, 1)), pairs=against_one(1))
        with pytest.raises(DimensionMismatch):
            ot.sinkhorn_batch(np.stack([h, hp]), hp[None], line_metric(5),
                              lam, V0=np.ones((5, 3)), pairs=against_one(2))


def plain_log_scaling(h, hp, M, lam, tol, max_iter):
    """The log-domain loop without epsilon-scaling or over-relaxation, one
    column: (distance, g, converged, passes)."""
    logK, logh, loghp = -lam * M, np.log(h), np.log(hp)
    L = ot._logsumexp(logK + np.zeros_like(hp)[None, :], 1)
    for it in range(1, max_iter + 1):
        f = logh - L
        g = loghp - ot._logsumexp(logK + f[:, None], 0)
        L = ot._logsumexp(logK + g[None, :], 1)
        err = np.abs(np.exp(f + L) - h).sum()
        if not err >= tol:
            break
    T = np.exp(f[None, :, None] + logK + g[None, None, :])
    return (T * M).sum(axis=(1, 2)), g, err < tol, it


class TestLogDomain:
    """The log-domain loop: plain passes first, then epsilon-scaling and
    safeguarded over-relaxation for the columns still unconverged."""

    def test_fast_column_is_the_plain_iteration(self):
        # converges in 546 passes, within the 1000 plain ones.  The
        # absorbed passes take the same steps with other roundings: the
        # distance and g agree to 9e-15 relative
        h, hp = random_pair(np.random.default_rng(4), 5)
        got = ot._log_scaling(h[:, None], hp[:, None], line_metric(5), 200.0,
                              1e-9, 8000)
        want = plain_log_scaling(h, hp, line_metric(5), 200.0, 1e-9, 8000)
        assert got[2][0] and want[2] and got[3] == want[3] == 546
        for a, b in zip(got[:2], want[:2]):
            a, b = np.ravel(a), np.ravel(b)
            assert np.all(np.abs(a - b) <= 1e-12 * np.abs(b))

    def test_hist_tight_pairs_converge(self, hist_tight):
        queries, reference = hist_tight
        _, conv = ot.sinkhorn_matrix(queries.members, reference.members,
                                     queries.ground_metric, 200.0, 1e-6, 2000)
        assert conv.size == 36 and conv.sum() >= 34

    def test_converged_distances_match_a_tight_solve(self, hist_tight):
        queries, reference = hist_tight
        args = (queries.members[4:6], reference.members,
                queries.ground_metric, 200.0)
        D, conv = ot.sinkhorn_matrix(*args, 1e-6, 2000)
        D_tight, conv_tight = ot.sinkhorn_matrix(*args, 1e-10, 20000)
        assert conv.all() and conv_tight.all()
        assert np.abs(D - D_tight).max() <= 2e-6

    def test_found_pair_converges_to_emd(self):
        # the |i - j| metric at d = 6, lambda 300: the plain log-domain
        # loop ended this pair unconverged at 0.0367 after 2000 passes
        d = 6
        M = line_metric(d)
        hp = np.random.default_rng(11).dirichlet(np.ones(d))
        h = 0.9 * hp + 0.1 / d
        sol = ot.sinkhorn(h, hp, M, 300.0, tol=1e-9, max_iter=2000)
        assert sol.converged
        assert abs(sol.distance - ot.emd_exact(h, hp, M)) <= 1e-6

    @pytest.mark.parametrize("warm, lams", [
        (False, [50.0, 100.0, 200.0, 400.0, 800.0]),
        (True, [50.0, 100.0, 200.0, 400.0, 800.0])])
    def test_stages_only_on_a_cold_start(self, monkeypatch, warm, lams):
        # lam 800 underflows exp(-lam * M) on line_metric(5); the pair
        # does not converge in the 250 plain passes that come first.  The
        # log domain always starts cold, so a warm start V0 runs the
        # stages too
        h, hp = random_pair(np.random.default_rng(4), 5)
        M = line_metric(5)
        kernels, log_stage = [], ot._log_stage

        def spy(H, Hp, logK, tol, cap, F, G, omega):
            kernels.append((-logK[0, 1], omega))
            return log_stage(H, Hp, logK, tol, cap, F, G, omega)

        monkeypatch.setattr(ot, "_log_stage", spy)
        conv = ot.sinkhorn_batch(h[None], hp[None], M, 800.0, tol=1e-9,
                                 max_iter=2000,
                                 V0=np.ones((5, 1)) if warm else None,
                                 pairs=against_one(1))[3]
        assert conv[0]
        assert kernels == [(800.0, 1.0)] + [(lam, ot._OMEGA) for lam in lams]

    def test_blocks_of_one_column_equal_one_block(self, monkeypatch,
                                                  hist_tight):
        queries, reference = hist_tight
        args = (np.tile(queries.members, (3, 1)),
                np.repeat(reference.members, 12, axis=0),
                queries.ground_metric, 200.0, 1e-6, 2000)
        blocks, log_scaling = [], ot._log_scaling

        def spy(HT, *rest):
            blocks.append(HT.shape[1])
            return log_scaling(HT, *rest)

        monkeypatch.setattr(ot, "_log_scaling", spy)
        one = ot.sinkhorn_batch(*args, pairs=row_by_row(36))
        monkeypatch.setattr(ot, "_LOG_BLOCK", 1)
        many = ot.sinkhorn_batch(*args, pairs=row_by_row(36))
        assert blocks == [36] + [1] * 36
        for a, b in zip(one, many):
            assert np.array_equal(a, b)

    def test_absorbing_every_pass_changes_no_step(self, monkeypatch,
                                                  hist_tight):
        # at _ABSORB 0 every pass rebuilds the kernel of each column whose
        # scalings moved
        queries, reference = hist_tight
        args = (queries.members, reference.members, queries.ground_metric,
                200.0, 1e-6, 2000)
        passes, log_stage = [], ot._log_stage

        def spy(*args):
            conv, n = log_stage(*args)
            passes.append(n.copy())
            return conv, n

        monkeypatch.setattr(ot, "_log_stage", spy)
        D, conv = ot.sinkhorn_matrix(*args)
        monkeypatch.setattr(ot, "_ABSORB", 0.0)
        D_every, conv_every = ot.sinkhorn_matrix(*args)
        half = len(passes) // 2
        assert conv.sum() >= 35 and np.array_equal(conv, conv_every)
        for a, b in zip(passes[:half], passes[half:]):
            assert np.array_equal(a, b)
        assert np.abs(D - D_every).max() <= 1e-12

    def test_passes_capped_in_all_stages(self):
        # the found pair again: it needs more than 100 passes in all
        d = 6
        hp = np.random.default_rng(11).dirichlet(np.ones(d))
        sol = ot.sinkhorn(0.9 * hp + 0.1 / d, hp, line_metric(d), 300.0,
                          tol=1e-9, max_iter=100)
        assert not sol.converged and sol.iterations == 100


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
        # four lam = 200, d = 20 pairs: three converge within 100
        # passes (87, 90, 85), one stops at the cap
        from knncompress.datasets import gen_histogram_dataset
        data = gen_histogram_dataset(2, 4, 20, 1.0, 1)
        H, M = ot.clamp_histogram(np.stack(data.members)), data.ground_metric
        assert np.any(np.exp(-200.0 * M) == 0.0)

        def solve():
            return [ot._log_scaling(H[[i]].T, H[[i + 4]].T, M, 200.0, 1e-6,
                                    100) for i in range(4)]

        ours = solve()
        self.scipy_patched(monkeypatch)
        for (d, _, conv, it), (d_ref, _, conv_ref, it_ref) in zip(
                ours, solve()):
            assert abs(d[0] - d_ref[0]) <= 1e-12 * abs(d_ref[0])
            assert (it, conv[0]) == (it_ref, conv_ref[0])
        assert sorted(int(conv[0]) for _, _, conv, _ in ours) == [0, 1, 1, 1]

    @pytest.mark.parametrize("lam", [10.0, 50.0])
    def test_barycenter_matches_scipy_reduction(self, monkeypatch, lam):
        # on the plain iteration (Anderson memory 0): lam 10 converges in
        # 219 steps, lam 50 stops at the cap.  Mixed, the two reductions'
        # last-bit differences reach the least-squares weights, and their
        # converged barycenters (199 and 291 steps at lam 50) differ by
        # 2e-9 relative; test_matches_a_tight_plain_iteration bounds those
        from knncompress.datasets import gen_histogram_dataset
        data = gen_histogram_dataset(2, 4, 20, 1.0, 1)
        members, M = data.members[:4], data.ground_metric
        monkeypatch.setattr(
            ot, "_anderson", lambda step, x, tol, max_iter, memory, name:
            optim._anderson(step, x, tol, max_iter, 0, name))

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
        sol = ot.SinkhornSolution(0.0, np.zeros(2), 10, False)
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
        dists, betas, V, conv, _ = ot.sinkhorn_batch(
            H, hp[None], M, lam=50.0, tol=1e-11, pairs=against_one(n))
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
        dists, betas, V, conv, _ = ot.sinkhorn_batch(
            H, hp[None], M, lam, tol=1e-9, max_iter=100000,
            pairs=against_one(n))
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
        dists, _, _, conv, _ = ot.sinkhorn_batch(
            H, hp[None], M, lam, tol=1e-9, max_iter=20000,
            pairs=against_one(len(H)))
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
        slow = 0.95 * hp + 0.05 / d
        alone = ot.sinkhorn_batch(peaked[None], hp[None], M, lam, tol=1e-9,
                                  max_iter=max_iter, pairs=against_one(1))
        assert alone[3][0]
        for H, i in (([peaked, slow], 0), ([slow, peaked], 1)):
            dists, betas, _, conv, _ = ot.sinkhorn_batch(
                np.stack(H), hp[None], M, lam, tol=1e-9, max_iter=max_iter,
                pairs=against_one(2))
            assert not conv[1 - i]
            assert conv[i]
            np.testing.assert_allclose(dists[i], alone[0][0], rtol=1e-12)
            np.testing.assert_allclose(betas[i], alone[1][0], rtol=1e-12,
                                       atol=1e-12)

    @pytest.mark.parametrize("lam", [2.0, 200.0])
    def test_per_column_second_marginals_equal_per_pair(self, lam):
        # at lam = 200 exp(-lam * M) underflows and the block runs in the
        # log domain.  The columns leave at different passes (lam 2: 10,
        # 28 and 14; lam 200: 272, 275 and 274); column 1, close to its
        # second marginal, stops at max_iter.
        d, max_iter = 6, {2.0: 40, 200.0: 400}[lam]
        M = line_metric(d)
        rng = np.random.default_rng(11)
        HP = rng.dirichlet(np.ones(d), size=4)
        H = np.stack([ot.clamp_histogram(np.eye(d)[-1] * 0.98 + 0.02 / d),
                      0.9 * HP[1] + 0.1 / d, rng.dirichlet(np.ones(d)),
                      ot.clamp_histogram(np.eye(d)[0] * 0.9 + 0.1 / d)])
        dists, betas, _, conv, it = ot.sinkhorn_batch(
            H, HP, M, lam, 1e-9, max_iter, pairs=row_by_row(4))
        sols = [ot.sinkhorn(h, hp, M, lam, 1e-9, max_iter)
                for h, hp in zip(H, HP)]
        assert len({s.iterations for s in sols}) >= 3
        assert not sols[1].converged and it == max_iter
        for k, sol in enumerate(sols):
            np.testing.assert_allclose(dists[k], sol.distance, rtol=1e-12)
            np.testing.assert_allclose(betas[k], sol.dual_beta, rtol=1e-12,
                                       atol=1e-14)
            assert conv[k] == sol.converged

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("columns", [1, 2])
    def test_working_block_width_moves_last_bits_only(self, monkeypatch,
                                                      warm, columns):
        # 60 pairs at d = 20, lam 2, leaving at 60 to 300 (the cap)
        # passes: one block by default, and a block of one or two columns,
        # whose slots take the next pending pair as a column leaves.  The
        # BLAS products round by block width; betas = log(V) / lam near 0
        # carry V's relative error as an absolute one
        d, lam, tol, max_iter = 20, 2.0, 1e-9, 300
        M, rng = line_metric(d), np.random.default_rng(13)
        H = rng.dirichlet(np.full(d, 0.5), size=12)
        Hp = np.vstack([rng.dirichlet(np.full(d, 0.5), size=4), H[5]])
        qi, pj = np.tile(np.arange(12), 5), np.repeat(np.arange(5), 12)
        V0 = rng.uniform(0.5, 2.0, (d, 60)) if warm else None
        args = (H, Hp, M, lam, tol, max_iter, V0)
        want = ot.sinkhorn_batch(*args, pairs=(qi, pj))
        monkeypatch.setattr(ot, "_LINEAR_BLOCK", columns * d)
        got = ot.sinkhorn_batch(*args, pairs=(qi, pj))
        for a, b in zip(got[:3], want[:3]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
        assert np.array_equal(got[3], want[3]) and got[4] == want[4]
        passes = []
        for k in range(60):
            alone = ot.sinkhorn_batch(
                H[qi[k]][None], Hp[pj[k]][None], M, lam, tol, max_iter,
                None if V0 is None else V0[:, k:k + 1], pairs=([0], [0]))
            for a, b in ((alone[0][0], got[0][k]), (alone[1][0], got[1][k]),
                         (alone[2][:, 0], got[2][:, k])):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)
            assert alone[3][0] == got[3][k]
            passes.append(alone[4])
        assert min(passes) == 60 and got[3].any() and not got[3].all()
        assert max(passes) == got[4] == max_iter

    def test_pair_entering_late_gets_its_own_passes(self, monkeypatch):
        # two slots: the peaked pair, twice, leaves them after 10 passes,
        # and the pair close to hp, which converges alone in exactly
        # max_iter = 362 passes, takes one there.  Counted from the slot's
        # first occupant, its cap would cut it off 10 passes short,
        # unconverged
        d = 6
        M = line_metric(d)
        hp = np.random.default_rng(11).dirichlet(np.ones(d))
        H = np.stack([ot.clamp_histogram(np.eye(d)[-1] * 0.98 + 0.02 / d),
                      0.95 * hp + 0.05 / d])
        sols = [ot.sinkhorn(h, hp, M, 2.0, 1e-9, 362) for h in H]
        assert [(s.iterations, s.converged) for s in sols] == [(10, True),
                                                               (362, True)]
        monkeypatch.setattr(ot, "_LINEAR_BLOCK", 2 * d)
        dists, betas, _, conv, it = ot.sinkhorn_batch(
            H, hp[None], M, 2.0, 1e-9, 362, pairs=([0, 0, 1], [0, 0, 0]))
        assert it == 362 and conv.all()
        for k, sol in zip([0, 1, 2], sols[:1] * 2 + sols[1:]):
            np.testing.assert_allclose(dists[k], sol.distance, rtol=1e-12)
            np.testing.assert_allclose(betas[k], sol.dual_beta, rtol=1e-12,
                                       atol=1e-14)

    def test_memory_is_the_returns_and_one_block(self):
        # 19,900 cold lam = 2 pairs at d = 20: besides the returned
        # arrays, the loop holds one working block of a few (d, w) arrays,
        # not (d, 19,900) ones
        rng = np.random.default_rng(14)
        d, H = 20, rng.dirichlet(np.ones(20), size=200)
        pairs = np.triu_indices(200, 1)
        n, w = len(pairs[0]), ot._LINEAR_BLOCK // d
        returned = 8 * n * (2 * d + 1) + n
        block = 8 * d * w
        tracemalloc.start()
        try:
            ot.sinkhorn_batch(H, H, line_metric(d), 2.0, 1e-6, 2000,
                              pairs=pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert returned < peak < returned + 8 * block

    def test_second_marginals_must_match_columns(self):
        H = np.full((3, 4), 0.25)
        with pytest.raises(DimensionMismatch):
            ot.sinkhorn_batch(H, H[:2], line_metric(4), 2.0,
                              pairs=row_by_row(3))
        with pytest.raises(DimensionMismatch):
            ot.sinkhorn_batch(H, np.full((3, 5), 0.2), line_metric(4), 2.0,
                              pairs=row_by_row(3))

    @pytest.mark.parametrize("row", [np.array([0.7, -0.1, 0.4]),
                                     np.array([0.5, 0.3, 0.3]),
                                     np.array([np.nan, 0.5, 0.5])])
    def test_bad_row_in_stack_raises(self, row):
        rng = np.random.default_rng(9)
        H = np.stack([rng.dirichlet(np.ones(3)) for _ in range(4)])
        H[2] = row
        with pytest.raises(InfeasibleMarginals):
            ot.sinkhorn_batch(H, np.full((1, 3), 1 / 3), line_metric(3), 5.0,
                              pairs=against_one(4))
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

    def test_equals_per_pair_sinkhorn(self):
        # column j·n + i of the batch is the pair (Q[i], P[j])
        D, conv = ot.sinkhorn_matrix(self.Q, self.P, self.M, 2.0, 1e-6, 2000)
        assert D.shape == conv.shape == (5, 3)
        for j, hp in enumerate(self.P):
            for i, h in enumerate(self.Q):
                d1, _, _, c1, _ = ot.sinkhorn_batch(
                    h[None], hp[None], self.M, 2.0, 1e-6, 2000,
                    pairs=against_one(1))
                np.testing.assert_allclose(D[i, j], d1[0], rtol=1e-12)
                assert conv[i, j] == c1[0]

    def test_one_batch_over_all_pairs(self, monkeypatch):
        batches, sinkhorn_batch = [], ot.sinkhorn_batch

        def counting(*args, pairs, **kwargs):
            batches.append(len(pairs[0]))
            return sinkhorn_batch(*args, pairs=pairs, **kwargs)

        monkeypatch.setattr(ot, "sinkhorn_batch", counting)
        ot.sinkhorn_matrix(self.Q, self.P, self.M, 2.0)
        ot.sinkhorn_pairwise(self.Q, self.M, 2.0)
        assert batches == [5 * 3, 5 * 4 // 2]

    # lam 200 underflows exp(-lam * M) on line_metric(6): the log domain
    @pytest.mark.parametrize("lam", [2.0, 200.0])
    def test_equals_batch_over_tiled_rows(self, lam):
        got = ot.sinkhorn_matrix(self.Q, self.P, self.M, lam, 1e-6, 2000)
        dists, _, _, conv, _ = ot.sinkhorn_batch(
            np.tile(self.Q, (3, 1)), np.repeat(self.P, 5, axis=0), self.M,
            lam, 1e-6, 2000, pairs=row_by_row(15))
        want = (dists.reshape(3, 5).T, conv.reshape(3, 5).T)
        assert len(got) == 2
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [2.0, 200.0])
    def test_pairwise_equals_batch_over_pairs(self, lam):
        i, j = np.triu_indices(5, 1)
        want = np.zeros((5, 5))
        want[i, j] = want[j, i] = ot.sinkhorn_batch(
            self.Q[i], self.Q[j], self.M, lam, 1e-6, 2000,
            pairs=row_by_row(len(i)))[0]
        assert np.array_equal(
            ot.sinkhorn_pairwise(self.Q, self.M, lam, 1e-6, 2000), want)

    def test_each_row_checked_once(self, monkeypatch):
        rows, check = [], ot.check_histograms

        def spy(H):
            rows.append(len(H))
            return check(H)

        monkeypatch.setattr(ot, "check_histograms", spy)
        ot.sinkhorn_matrix(self.Q, self.P, self.M, 2.0)
        assert sum(rows) == 5 + 3
        rows.clear()
        ot.sinkhorn_pairwise(self.Q, self.M, 2.0)
        assert rows == [5]

    def test_pairs_out_of_range_raise(self):
        for pairs in (([0, 5], [0, 0]), ([0, 1], [0, -1]), ([0], [0, 1]),
                      ([[0]], [[0]])):
            with pytest.raises(DimensionMismatch):
                ot.sinkhorn_batch(self.Q, self.P, self.M, 2.0, pairs=pairs)

    def test_empty_side_makes_no_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("sinkhorn_batch called")

        monkeypatch.setattr(ot, "sinkhorn_batch", no_solve)
        assert ot.sinkhorn_matrix([], self.P, self.M, 2.0)[0].shape == (0, 3)
        assert ot.sinkhorn_matrix(self.Q, [], self.M, 2.0)[0].shape == (5, 0)
        for n in (0, 1):
            D = ot.sinkhorn_pairwise(self.Q[:n], self.M, 2.0)
            assert np.array_equal(D, np.zeros((n, n)))


class TestEmdExact:
    def test_marginal_dims_differ(self):
        with pytest.raises(DimensionMismatch, match="marginal dims"):
            ot.emd_exact(np.array([0.5, 0.5]), np.full(3, 1 / 3),
                         line_metric(3))

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
    @pytest.mark.parametrize("lam, max_iter, error", [
        (0.0, 1000, InfeasibleMarginals),
        (-5.0, 1000, InfeasibleMarginals),
        (np.nan, 1000, InfeasibleMarginals),
        (np.inf, 1000, InfeasibleMarginals),
        (10.0, 0, BadParameters), (10.0, True, BadParameters)])
    def test_rejects_bad_lambda_and_max_iter(self, lam, max_iter, error):
        # each used to return a histogram (uniform, or a lopsided one for
        # lambda -5) or all NaN, with at most a warning
        members = np.random.default_rng(7).dirichlet(np.ones(4), 4)
        with pytest.raises(error):
            ot.sinkhorn_barycenter(members, line_metric(4), lam,
                                   max_iter=max_iter)

    def test_no_members(self):
        with pytest.raises(EmptyInput):
            ot.sinkhorn_barycenter(np.zeros((0, 4)), line_metric(4), 10.0)

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

    @pytest.mark.parametrize("lam", [10.0, 50.0])
    def test_matches_a_tight_plain_iteration(self, lam):
        # bound: tol in L1 (measured 0.14 tol at lam 10, 0.19 tol at lam 50).
        # The plain loop's own L1 step test at tol 1e-9 stopped 9.3e-9 (lam
        # 10) and, at its 300-step cap, 2.7e-4 (lam 50) from this reference
        from knncompress.datasets import gen_histogram_dataset
        data = gen_histogram_dataset(2, 4, 20, 1.0, 1)
        members, M = data.members[:4], data.ground_metric
        bar = ot.sinkhorn_barycenter(members, M, lam, tol=1e-9, max_iter=300)
        ref = plain_barycenter(members, M, lam)
        assert np.abs(bar - ref).sum() <= 1e-9

    def test_max_iter_warns_and_returns_a_plain_image(self):
        rng = np.random.default_rng(31)
        members = ot.clamp_histogram(rng.dirichlet(np.ones(5), 3))
        M = line_metric(5)
        with pytest.warns(NoConvergence):
            bar = ot.sinkhorn_barycenter(members, M, 10.0, max_iter=1)
        assert bar.sum() == pytest.approx(1.0, abs=1e-12)
        ref = plain_barycenter(members, M, 10.0, max_iter=1)
        assert np.all(np.abs(bar - ref) <= 1e-12 * ref)

    def test_on_simplex(self):
        rng = np.random.default_rng(29)
        members = [ot.clamp_histogram(rng.dirichlet(np.ones(4)))
                   for _ in range(3)]
        bar = ot.sinkhorn_barycenter(members, line_metric(4), lam=40.0)
        assert bar.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(bar >= 0)
