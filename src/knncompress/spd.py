"""SPD matrices: Cholesky factors, log-det divergences, Frechet centroid.

Covariance descriptors are plain ``(d, d)`` numpy arrays living on the SPD
cone.  Cholesky factors follow the ``B.T @ B == X`` convention with ``B``
upper triangular and a positive diagonal, so any factor with nonzero
diagonal reconstructs to an SPD matrix.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, EmptyInput, NoConvergence, NotPositiveDefinite

import warnings

_JITTER_EPS = 1e-12


def _as_square(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {X.shape}")
    return X


def cholesky(X: np.ndarray) -> np.ndarray:
    """Upper-triangular B with positive diagonal such that B.T @ B = X."""
    X = _as_square(X)
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky failed: input not positive definite") from None
    return L.T.copy()


def reconstruct(B: np.ndarray) -> np.ndarray:
    """Inverse of :func:`cholesky`: B.T @ B."""
    B = _as_square(B, "factor")
    return B.T @ B


def _chol_logdet(A: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky factor (lower) and log-determinant, with one jitter retry."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        d = A.shape[0]
        jitter = _JITTER_EPS * np.trace(A) / d
        try:
            L = np.linalg.cholesky(A + jitter * np.eye(d))
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(
                "matrix not positive definite even after jitter") from None
    return L, 2.0 * np.sum(np.log(np.diag(L)))


def logdet(X: np.ndarray) -> float:
    """log |X| via Cholesky; raises NotPositiveDefinite for non-SPD input."""
    return _chol_logdet(_as_square(X))[1]


def _check_pair(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = _as_square(X, "X")
    Y = _as_square(Y, "Y")
    if X.shape != Y.shape:
        raise DimensionMismatch(f"shape mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def jbld(X: np.ndarray, Y: np.ndarray) -> float:
    """Jensen-Bregman log-det divergence log|(X+Y)/2| - 0.5 log|XY|.

    Symmetric, nonnegative, zero exactly when X == Y.  All determinants go
    through Cholesky log-dets, never explicit determinant products.
    """
    X, Y = _check_pair(X, Y)
    mid = logdet(0.5 * (X + Y))
    return mid - 0.5 * (logdet(X) + logdet(Y))


def _as_stack(A, name: str) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionMismatch(
            f"{name} must be a stack of square matrices, got shape {A.shape}")
    return A


def _logdets(S: np.ndarray) -> np.ndarray:
    """log|S_i| of each matrix of a stack, each as :func:`logdet` gives it.

    One stacked Cholesky; if any member fails it, every member goes
    through _chol_logdet and its jitter retry.
    """
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return np.array([_chol_logdet(M)[1] for M in S])
    return 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)


def jbld_matrix(A, B) -> np.ndarray:
    """(len(A), len(B)) matrix of jbld(A[i], B[j]), bit-identical to it.

    Each member's log-determinant is computed once; the midpoints are
    factored one stacked Cholesky per member of B, so the cost is linear
    in len(B) with the rows of A batched.
    """
    if len(A) == 0 or len(B) == 0:
        return np.zeros((len(A), len(B)))
    A = _as_stack(A, "A")
    B = _as_stack(B, "B")
    if A.shape[1:] != B.shape[1:]:
        raise DimensionMismatch(
            f"shape mismatch: {A.shape[1:]} vs {B.shape[1:]}")
    ld_a, ld_b = _logdets(A), _logdets(B)
    D = np.empty((len(A), len(B)))
    for j in range(len(B)):
        D[:, j] = _logdets(0.5 * (A + B[j])) - 0.5 * (ld_a + ld_b[j])
    return D


# a batched form any metric callable may carry; knn.distance_matrix uses it
jbld.matrix = jbld_matrix


def airm(X: np.ndarray, Y: np.ndarray) -> float:
    """Affine-invariant Riemannian distance ||log(Y^-1/2 X Y^-1/2)||_F.

    Computed through the generalized eigenvalues of (X, Y): the distance is
    sqrt(sum_i log^2 lambda_i).
    """
    X, Y = _check_pair(X, Y)
    try:
        lam = scipy.linalg.eigh(X, Y, eigvals_only=True)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):
        raise NotPositiveDefinite("generalized eigendecomposition failed") from None
    if np.any(lam <= 0):
        raise NotPositiveDefinite("nonpositive generalized eigenvalue")
    return float(np.sqrt(np.sum(np.log(lam) ** 2)))


def jbld_gradient_chol(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Gradient of jbld(X, B.T @ B) w.r.t. the upper-triangular entries of B.

    The matrix form is 2 B (X + B.T B)^-1 - B^-T, restricted to the upper
    triangle (the strict lower triangle of B is not a free parameter).
    Validated against central finite differences; see the test suite.
    """
    X, B = _check_pair(X, B)
    S = B.T @ B
    L, _ = _chol_logdet(X + S)
    # 2 B (X+S)^-1, via the Cholesky factor of X+S
    W = scipy.linalg.cho_solve((L, True), B.T)
    Binv_T = scipy.linalg.solve_triangular(B, np.eye(B.shape[0]), lower=False).T
    grad = 2.0 * W.T - Binv_T
    return np.triu(grad)


def jbld_centroid(members: list[np.ndarray], tol: float = 1e-10,
                  max_iter: int = 200) -> np.ndarray:
    """Frechet mean under jbld: approximate minimizer of sum_i jbld(X, X_i).

    Fixed-point iteration on the stationarity condition,
    X <- [ mean_i ((X + X_i)/2)^-1 ]^-1, started at the arithmetic mean.
    Emits a NoConvergence warning (and returns the last iterate) if the
    iteration cap is hit.
    """
    if len(members) == 0:
        raise EmptyInput("centroid of an empty set")
    members = [_as_square(M, "member") for M in members]
    d = members[0].shape[0]
    for M in members:
        if M.shape != (d, d):
            raise DimensionMismatch("centroid members must share a dimension")
    X = np.mean(members, axis=0)
    for _ in range(max_iter):
        acc = np.zeros((d, d))
        for M in members:
            L, _ = _chol_logdet(0.5 * (X + M))
            acc += scipy.linalg.cho_solve((L, True), np.eye(d))
        acc /= len(members)
        L, _ = _chol_logdet(acc)
        X_new = scipy.linalg.cho_solve((L, True), np.eye(d))
        X_new = 0.5 * (X_new + X_new.T)
        if np.linalg.norm(X_new - X, "fro") < tol:
            return X_new
        X = X_new
    warnings.warn("jbld_centroid hit max_iter; returning last iterate",
                  NoConvergence)
    return X
