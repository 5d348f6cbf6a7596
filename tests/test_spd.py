import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from knncompress import spd
from knncompress.datasets import LabeledDataset, gen_covariance_dataset
from knncompress.errors import (DimensionMismatch, NoConvergence,
                                 NotPositiveDefinite)


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return A @ A.T + scale * d * np.eye(d)


def plain_centroid_step(members, X):
    """X <- [ mean_i ((X + X_i)/2)^-1 ]^-1, by plain inverses."""
    inv = np.linalg.inv
    X = inv(np.mean([inv(0.5 * (X + M)) for M in members], axis=0))
    return 0.5 * (X + X.T)


def plain_centroid(members, tol=1e-14, max_iter=10_000):
    """The plain fixed-point iteration from the members' mean, stopped
    once a step moves X by less than tol in Frobenius norm."""
    X = np.mean(members, axis=0)
    for _ in range(max_iter):
        X_new = plain_centroid_step(members, X)
        if np.linalg.norm(X_new - X) < tol:
            break
        X = X_new
    return X_new


class TestCholesky:
    def test_identity(self):
        for d in (1, 3, 7):
            assert np.allclose(spd.cholesky(np.eye(d)), np.eye(d))

    def test_hand_example(self):
        X = np.array([[4.0, 2.0], [2.0, 5.0]])
        B = spd.cholesky(X)
        assert np.allclose(B, [[2.0, 1.0], [0.0, 2.0]])
        assert np.allclose(B.T @ B, X)

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(42)
        X = random_spd(rng, 5)
        B = spd.cholesky(X)
        rel = np.linalg.norm(B.T @ B - X) / np.linalg.norm(X)
        assert rel < 1e-12
        assert np.all(np.diag(B) > 0)
        assert np.allclose(np.tril(B, -1), 0)

    def test_round_trip_on_factors(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            B = np.triu(rng.standard_normal((4, 4)))
            B[np.diag_indices(4)] = np.abs(np.diag(B)) + 0.5
            assert np.allclose(spd.cholesky(B.T @ B), B)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            spd.cholesky(np.ones((2, 3)))


class TestCholLogdets:
    def test_singular_member_in_two_leading_dims_raises(self):
        rng = np.random.default_rng(4)
        S = np.array([[random_spd(rng, 4) for _ in range(3)]
                      for _ in range(2)])
        S[1, 2] = np.diag([1.0, 2.0, 3.0, 0.0])
        with pytest.raises(NotPositiveDefinite):
            spd.chol_logdets(S)

    def test_negative_identity_raises(self):
        with pytest.raises(NotPositiveDefinite):
            spd.chol_logdets(-np.eye(3))
        with pytest.raises(NotPositiveDefinite):
            spd.chol_logdets(np.array([np.eye(3), -np.eye(3)]))

    def test_tril_inv_matches_inv(self):
        rng = np.random.default_rng(0)
        L = np.tril(rng.standard_normal((4, 6, 5, 5)), -1)
        L += np.eye(5) * rng.uniform(0.5, 2.0, (4, 6, 1, 5))
        assert np.allclose(spd.tril_inv(L), np.linalg.inv(L),
                           rtol=1e-12, atol=1e-12)


class TestCheckSpd:
    def test_empty_set_builds_nothing(self):
        # no member to factor, so no (dim, dim) identity and no stack
        tracemalloc.start()
        try:
            LabeledDataset(family="covariance", dim=2000, members=[],
                           labels=[])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestInvCholLogdets:
    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_matches_chol_logdets_and_inv(self, d):
        rng = np.random.default_rng(d)
        S = np.array([[random_spd(rng, d) for _ in range(4)]
                      for _ in range(3)])
        # a lower-triangular copy: the factors overwrite it, and the
        # inverse reads a strict upper triangle of 0s
        factors, ld = spd.chol_logdets_last(np.tril(S).transpose(2, 3, 0, 1))
        Linv = spd.tril_inv_last(factors)
        L, ref_ld = spd.chol_logdets(S)
        ref = np.linalg.inv(L)
        got = Linv.transpose(2, 3, 0, 1)
        assert ld.shape == (3, 4) and got.shape == ref.shape
        assert np.abs(ld - ref_ld).max() <= 1e-13 * np.abs(ref_ld).max()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.array_equal(np.triu(got, 1), np.zeros_like(got))

    def test_factors_in_place(self):
        # S is the factor, and its strict upper triangle is left as it was
        rng = np.random.default_rng(3)
        X = np.array([[random_spd(rng, 4) for _ in range(3)]
                      for _ in range(2)])
        S = X.transpose(2, 3, 0, 1).copy()
        factors, ld = spd.chol_logdets_last(S)
        assert factors is S
        got = np.moveaxis(S, (0, 1), (-2, -1))  # (2, 3, 4, 4) view of S
        assert np.array_equal(np.triu(got, 1), np.triu(X, 1))
        ref, ref_ld = spd.chol_logdets(X)
        assert np.abs(np.tril(got) - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(ld - ref_ld).max() <= 1e-13 * np.abs(ref_ld).max()

    @pytest.mark.parametrize("bad", ["negative identity", "nan", "all ones"])
    def test_not_positive_definite_member_raises(self, bad):
        rng = np.random.default_rng(6)
        S = np.array([[random_spd(rng, 3) for _ in range(3)]
                      for _ in range(2)])
        if bad == "negative identity":
            S[1, 2] = -np.eye(3)
        elif bad == "nan":  # reaches only the last pivot
            S[1, 2, 2, 1] = S[1, 2, 1, 2] = np.nan
        else:  # singular PSD; chol_logdets rejects it too
            S[1, 2] = np.ones((3, 3))
        with pytest.raises(NotPositiveDefinite):
            spd.chol_logdets_last(S.transpose(2, 3, 0, 1))


class TestJbld:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        for d in (2, 5):
            X = random_spd(rng, d)
            assert abs(spd.jbld(X, X)) < 1e-12

    def test_scalar_value(self):
        got = spd.jbld(np.array([[1.0]]), np.array([[4.0]]))
        assert got == pytest.approx(0.2231435513, abs=1e-9)

    def test_symmetry_nonnegativity(self):
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 10):
            for _ in range(25):
                X, Y = random_spd(rng, d), random_spd(rng, d)
                dxy, dyx = spd.jbld(X, Y), spd.jbld(Y, X)
                assert dxy == pytest.approx(dyx, abs=1e-10)
                assert dxy > 0

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.integers(2, 6)
            X, Y = random_spd(rng, d), random_spd(rng, d)
            A = rng.standard_normal((d, d)) + np.eye(d)
            assert abs(spd.jbld(A @ X @ A.T, A @ Y @ A.T)
                       - spd.jbld(X, Y)) < 1e-8

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd.jbld(np.eye(2), np.eye(3))


class TestJbldMatrix:
    def test_equals_per_pair_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for d in (1, 3, 5, 12):
            A = [random_spd(rng, d, 0.1) for _ in range(9)]
            B = [random_spd(rng, d, 0.1) for _ in range(6)]
            D = spd.jbld_matrix(A, B)
            assert D.shape == (9, 6)
            assert np.array_equal(
                D, [[spd.jbld(x, y) for y in B] for x in A])

    def test_singular_member_raises(self):
        rng = np.random.default_rng(12)
        v = rng.standard_normal(4)
        singular = np.outer(v, v) + np.diag([1.0, 1.0, 1.0, 0.0])
        singular[:, 3] = singular[3, :] = 0.0
        A = [random_spd(rng, 4), singular, random_spd(rng, 4)]
        B = [random_spd(rng, 4), random_spd(rng, 4)]
        for a, b in ((A, B), (B, A)):
            with pytest.raises(NotPositiveDefinite):
                spd.jbld_matrix(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd.jbld_matrix([np.eye(2)], [np.eye(3)])
        with pytest.raises(DimensionMismatch):
            spd.jbld_matrix([np.ones((2, 3))], [np.ones((2, 3))])

    def test_empty_side(self):
        assert spd.jbld_matrix([], [np.eye(2)]).shape == (0, 1)

    def test_carried_by_jbld(self):
        assert spd.jbld.matrix is spd.jbld_matrix

    def test_no_lapack_cholesky(self, monkeypatch):
        def lapack(S):
            raise AssertionError("LAPACK Cholesky called")

        monkeypatch.setattr(spd, "chol_logdets", lapack)
        rng = np.random.default_rng(14)
        X = [random_spd(rng, 3) for _ in range(4)]
        assert spd.jbld_matrix(X, X[:2]).shape == (4, 2)
        assert spd.jbld(X[0], X[1]) > 0
        assert spd.jbld.pairwise(X).shape == (4, 4)

    @staticmethod
    def check_blocks(monkeypatch, d, budget, widths):
        rng = np.random.default_rng(15)
        A = [random_spd(rng, d, 0.1) for _ in range(8)]
        B = [random_spd(rng, d, 0.1) for _ in range(7)]
        whole = spd.jbld_matrix(A, B)
        shapes = []
        kernel = spd.chol_logdets_last

        def recording(S):
            # the kernel factors the block's one stack, as it was allocated
            assert S.base is None and S.flags.c_contiguous
            shapes.append(S.shape)
            out = kernel(S)
            assert out[0] is S
            return out

        monkeypatch.setattr(spd, "chol_logdets_last", recording)
        monkeypatch.setattr(spd, "_JBLD_BLOCK", budget)
        assert np.array_equal(spd.jbld_matrix(A, B), whole)
        assert shapes == [(d, d, w + 1, 9) for w in widths]
        # within the budget, or one column where one column is more
        assert max(np.prod(shapes, axis=1)) <= max(budget, d * d * 9 * 2)

    @pytest.mark.parametrize("budget, widths",
                             [(1, [1] * 7), (25 * 9 * 4, [3, 3, 1])])
    def test_blocks_equal_one_block(self, monkeypatch, budget, widths):
        self.check_blocks(monkeypatch, 5, budget, widths)

    @pytest.mark.parametrize("budget, widths",
                             [(1, [1] * 7), (400 * 9 * 4, [3, 3, 1])])
    def test_blocks_equal_one_block_at_d20(self, monkeypatch, budget, widths):
        self.check_blocks(monkeypatch, 20, budget, widths)

    def test_one_stack_per_block(self):
        # the midpoints are written into the stack the kernel factors, so
        # a block holds one stack-sized array, not three
        rng = np.random.default_rng(16)
        A = np.array([random_spd(rng, 5, 0.1) for _ in range(300)])
        B = np.array([random_spd(rng, 5, 0.1) for _ in range(24)])
        stack = 8 * 5 * 5 * 301 * 25
        assert stack <= 8 * spd._JBLD_BLOCK  # one block
        tracemalloc.start()
        try:
            spd.jbld_matrix(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack < peak < 2 * stack

    @pytest.mark.parametrize("d", [5, 20])
    def test_matches_lapack_formula(self, d):
        rng = np.random.default_rng(d)
        A = np.array([random_spd(rng, d, 0.1) for _ in range(6)])
        B = np.array([random_spd(rng, d, 0.1) for _ in range(5)])

        def logdet(S):
            return 2.0 * np.log(np.diagonal(np.linalg.cholesky(S),
                                            axis1=-2, axis2=-1)).sum(-1)

        ref = (logdet(0.5 * (A[:, None] + B[None]))
               - 0.5 * (logdet(A)[:, None] + logdet(B)[None]))
        D = spd.jbld_matrix(A, B)
        assert np.abs(D - ref).max() <= 1e-12 * np.abs(ref).max()


class TestAirm:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(5)
        X = random_spd(rng, 4)
        assert abs(spd.airm(X, X)) < 1e-10

    def test_scalar(self):
        assert spd.airm(np.array([[np.e ** 2]]),
                        np.array([[1.0]])) == pytest.approx(2.0, abs=1e-12)

    def test_commuting_diagonal(self):
        got = spd.airm(np.diag([1.0, 4.0]), np.eye(2))
        assert got == pytest.approx(np.log(4.0), abs=1e-10)

    @pytest.mark.parametrize("side", ["X", "Y"])
    def test_not_positive_definite(self, side):
        # X indefinite gives a negative generalized eigenvalue; Y
        # indefinite fails the generalized eigendecomposition itself
        message = {"X": "nonpositive", "Y": "decomposition failed"}[side]
        pair = {"X": np.eye(2), "Y": np.eye(2)}
        pair[side] = np.diag([1.0, -1.0])
        with pytest.raises(NotPositiveDefinite, match=message):
            spd.airm(pair["X"], pair["Y"])

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = rng.integers(2, 6)
            X, Y = random_spd(rng, d), random_spd(rng, d)
            assert spd.airm(X, Y) == pytest.approx(spd.airm(Y, X), abs=1e-8)
            A = rng.standard_normal((d, d)) + np.eye(d)
            assert abs(spd.airm(A @ X @ A.T, A @ Y @ A.T)
                       - spd.airm(X, Y)) < 1e-8


def fd_gradient(X, B, h=1e-5):
    d = B.shape[0]
    G = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            Bp, Bm = B.copy(), B.copy()
            Bp[i, j] += h
            Bm[i, j] -= h
            G[i, j] = (spd.jbld(X, Bp.T @ Bp) - spd.jbld(X, Bm.T @ Bm)) / (2 * h)
    return G


class TestJbldGradient:
    def test_zero_at_minimizer(self):
        rng = np.random.default_rng(2)
        X = random_spd(rng, 4)
        G = spd.jbld_gradient_chol(X, spd.cholesky(X))
        assert np.max(np.abs(G)) < 1e-8

    def test_scalar_hand_value(self):
        G = spd.jbld_gradient_chol(np.array([[1.0]]), np.array([[2.0]]))
        assert G[0, 0] == pytest.approx(0.3, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            X = random_spd(rng, 3)
            B = spd.cholesky(random_spd(rng, 3))
            G = spd.jbld_gradient_chol(X, B)
            F = fd_gradient(X, B)
            rel = np.abs(G - F) / np.maximum(np.abs(F), 1e-8)
            assert np.max(rel[np.triu_indices(3)]) < 1e-5

    def test_lower_triangle_zero(self):
        rng = np.random.default_rng(22)
        G = spd.jbld_gradient_chol(random_spd(rng, 4),
                                   spd.cholesky(random_spd(rng, 4)))
        assert np.allclose(np.tril(G, -1), 0)


class TestJbldCentroid:
    def test_single_member(self):
        rng = np.random.default_rng(1)
        X = random_spd(rng, 3)
        assert np.allclose(spd.jbld_centroid([X]), X, atol=1e-8)

    def test_duplicates(self):
        rng = np.random.default_rng(2)
        X = random_spd(rng, 3)
        assert np.allclose(spd.jbld_centroid([X, X]), X, atol=1e-8)

    def test_scalar_against_golden_section(self):
        members = [np.array([[1.0]]), np.array([[4.0]])]
        cen = spd.jbld_centroid(members, tol=1e-14)

        def obj(x):
            return (np.log((x + 1) / 2) + np.log((x + 4) / 2)
                    - 0.5 * np.log(x) - 0.5 * np.log(4 * x))

        res = minimize_scalar(obj, bracket=(0.5, 2.0, 5.0),
                              method="golden", options={"xtol": 1e-12})
        assert cen[0, 0] == pytest.approx(res.x, abs=1e-6)

    def test_objective_beats_members(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            members = [random_spd(rng, 3) for _ in range(rng.integers(2, 6))]
            cen = spd.jbld_centroid(members)

            def total(X):
                return sum(spd.jbld(X, Mb) for Mb in members)

            best_member = min(total(Mb) for Mb in members)
            assert total(cen) <= best_member + 1e-8

    def test_empty(self):
        from knncompress.errors import EmptyInput
        with pytest.raises(EmptyInput):
            spd.jbld_centroid([])

    def test_fixed_point_d5(self):
        rng = np.random.default_rng(10)
        members = [random_spd(rng, 5, 0.2) for _ in range(7)]
        X = spd.jbld_centroid(members, tol=1e-13)
        inv = np.linalg.inv
        rhs = inv(np.mean([inv(0.5 * (X + M)) for M in members], axis=0))
        assert np.linalg.norm(rhs - X) <= 1e-8 * np.linalg.norm(X)

    def test_mixed_dimension(self):
        with pytest.raises(DimensionMismatch):
            spd.jbld_centroid([np.eye(2), np.eye(3)])

    def test_max_iter_warns_and_returns_last_iterate(self):
        # the last iterate is a plain image G(X), here G of the mean
        rng = np.random.default_rng(11)
        members = [random_spd(rng, 3) for _ in range(4)]
        with pytest.warns(NoConvergence):
            X = spd.jbld_centroid(members, max_iter=1)
        assert np.allclose(X, X.T) and np.all(np.linalg.eigvalsh(X) > 0)
        assert np.allclose(X, plain_centroid_step(members,
                                                  np.mean(members, axis=0)),
                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_matches_a_tight_plain_iteration(self, tol):
        # bound 2 tol in Frobenius norm: the plain map contracts by about
        # rho = 0.6 a step here (36-38 plain steps to 1e-8), so the image of
        # a point whose step is below tol is within rho / (1 - rho) tol =
        # 1.5 tol of the fixed point, as the plain loop's last iterate was
        data = gen_covariance_dataset(3, 100, 5, 8, 1.0, 2)
        rng = np.random.default_rng(10)
        sets = [data.members[data.labels == c] for c in range(3)]
        sets += [np.stack([random_spd(rng, 5, 0.2) for _ in range(7)])
                 for _ in range(3)]
        for members in sets:
            X = spd.jbld_centroid(members, tol=tol, max_iter=100)
            assert np.linalg.norm(X - plain_centroid(members)) <= 2 * tol

    def test_inadmissible_trial_falls_back_to_the_plain_step(self,
                                                             monkeypatch):
        rng = np.random.default_rng(12)
        members = np.stack([random_spd(rng, 4) for _ in range(5)])
        real = spd._anderson
        points, images, checks = [], [], []

        def refusing(step, x, tol, max_iter, memory, name, admissible):
            def spy(X):
                points.append(X)
                images.append(step(X)[0])
                return images[-1], images[-1]

            checks.append(admissible)
            return real(spy, x, tol, max_iter, memory, name, lambda X: False)

        monkeypatch.setattr(spd, "_anderson", refusing)
        X = spd.jbld_centroid(members, tol=1e-12)
        # every trial refused: each step starts from the last plain image
        assert len(points) > 3
        for image, point in zip(images, points[1:]):
            assert point is image
        assert np.allclose(X, X.T) and np.all(np.linalg.eigvalsh(X) > 0)
        assert np.linalg.norm(X - plain_centroid(members)) <= 2e-12
        # the routine's own test is a Cholesky factorization
        (admissible,) = checks
        shifted = X - 2 * np.linalg.eigvalsh(X)[0] * np.eye(4)
        assert admissible(X) and not admissible(shifted)
        assert not admissible(-X)
