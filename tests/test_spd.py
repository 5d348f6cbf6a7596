import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from knncompress import spd
from knncompress.errors import DimensionMismatch, NotPositiveDefinite


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return A @ A.T + scale * d * np.eye(d)


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
            assert np.allclose(spd.cholesky(spd.reconstruct(B)), B)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spd.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square(self):
        with pytest.raises(DimensionMismatch):
            spd.cholesky(np.ones((2, 3)))


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

    def test_jitter_retry_member(self):
        # a singular PSD member fails the plain Cholesky and takes the
        # jitter retry, in the stack as in jbld
        rng = np.random.default_rng(12)
        v = rng.standard_normal(4)
        singular = np.outer(v, v) + np.diag([1.0, 1.0, 1.0, 0.0])
        singular[:, 3] = singular[3, :] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        A = [random_spd(rng, 4), singular, random_spd(rng, 4)]
        B = [singular, random_spd(rng, 4)]
        D = spd.jbld_matrix(A, B)
        assert np.all(np.isfinite(D))
        assert np.array_equal(D, [[spd.jbld(x, y) for y in B] for x in A])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd.jbld_matrix([np.eye(2)], [np.eye(3)])
        with pytest.raises(DimensionMismatch):
            spd.jbld_matrix([np.ones((2, 3))], [np.ones((2, 3))])

    def test_empty_side(self):
        assert spd.jbld_matrix([], [np.eye(2)]).shape == (0, 1)

    def test_carried_by_jbld(self):
        assert spd.jbld.matrix is spd.jbld_matrix


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
