"""SPD matrices: Cholesky factors, log-det divergences, Frechet centroid.

Covariance descriptors are plain ``(d, d)`` numpy arrays living on the SPD
cone.  Cholesky factors follow the ``B.T @ B == X`` convention with ``B``
upper triangular and a positive diagonal, so any factor with nonzero
diagonal reconstructs to an SPD matrix.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, EmptyInput, NotPositiveDefinite
from .optim import _anderson

_JBLD_BLOCK = 1 << 19  # float64 entries in a jbld_matrix stack: 4 MB


def _as_square(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {X.shape}")
    return X


def cholesky(X: np.ndarray) -> np.ndarray:
    """Upper-triangular B with positive diagonal such that B.T @ B = X."""
    return chol_logdets(_as_square(X))[0].T


def chol_logdets(S) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and log-determinants of one matrix or of a
    stack of any leading shape, from one stacked Cholesky;
    NotPositiveDefinite if any member is not positive definite.
    """
    try:
        L = np.linalg.cholesky(np.asarray(S, dtype=float))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Cholesky failed: input not positive definite") from None
    return L, 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)


def tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices by forward
    substitution, one row per step over a copy of the stack held
    stack-last."""
    Lt = np.array(np.moveaxis(L, (-2, -1), (0, 1)), dtype=float, order="C")
    return np.moveaxis(tril_inv_last(Lt), (0, 1), (-2, -1))


def tril_inv_last(M: np.ndarray, work=None) -> np.ndarray:
    """tril_inv of a stack held stack-last, (d, d, ...), over it in place;
    its strict upper triangle must be 0.  work: a buffer, M.shape[1:]."""
    work = np.empty(M.shape[1:]) if work is None else work
    # row k of the inverse needs row k of L and the inverse's rows above
    # it, so each row can overwrite its own
    for k in range(M.shape[0]):
        np.divide(1.0, M[k, k], out=M[k, k, ...])
        np.multiply(-M[k, k], np.einsum("p...,pq...->q...", M[k, :k],
                                        M[:k, :k], out=work[:k]), out=M[k, :k])
    return M


def chol_logdets_last(S, work=None) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors and log-determinants of an SPD stack held
    stack-last, (d, d, ...): the kernel of every JBLD midpoint.

    A d-step left-looking Cholesky, each step one column of every member
    at once, in place on the lower triangle of the float array S, whose
    column j step j reads before it writes the factor's there; S, returned
    as the factors, keeps its strict upper triangle.  NotPositiveDefinite
    if any pivot is not > 0, NaN included.  numpy sums a one-element stack
    in another order than a larger one.  work: a buffer, S.shape[1:].
    """
    work = np.empty(S.shape[1:]) if work is None else work
    for j in range(S.shape[0]):
        v = np.einsum("kp...,p...->k...", S[j:, :j], S[j, :j], out=work[j:])
        np.subtract(S[j:, j], v, out=v)
        if not (v[0] > 0.0).all():
            raise NotPositiveDefinite(
                "Cholesky failed: input not positive definite")
        np.sqrt(v[0], out=S[j, j, ...])
        np.divide(v[1:], S[j, j], out=S[j + 1:, j])
    return S, 2.0 * np.log(np.diagonal(S, axis1=0, axis2=1)).sum(axis=-1)


def check_spd(S: np.ndarray) -> None:
    """NotPositiveDefinite unless LAPACK and chol_logdets_last each factor
    every member of an (n, d, d) stack, the latter with I appended."""
    if not len(S):  # nothing to factor, at any d
        return
    chol_logdets(S)
    chol_logdets_last(np.concatenate(
        [S.transpose(1, 2, 0), np.eye(S.shape[-1])[..., None]], axis=2))


def _check_pair(X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = _as_square(X, "X")
    Y = _as_square(Y, "Y")
    if X.shape != Y.shape:
        raise DimensionMismatch(f"shape mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def jbld(X: np.ndarray, Y: np.ndarray) -> float:
    """Jensen-Bregman log-det divergence log|(X+Y)/2| - 0.5 log|XY|.

    Symmetric, nonnegative, zero exactly when X == Y: jbld_matrix on the
    one pair, whose determinants are all Cholesky log-dets.
    """
    X, Y = _check_pair(X, Y)
    return float(jbld_matrix(X[None], Y[None])[0, 0])


def _as_stack(A, name: str) -> np.ndarray:
    try:
        A = np.asarray(A, dtype=float)
    except ValueError:
        raise DimensionMismatch(f"{name} must share one shape") from None
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise DimensionMismatch(
            f"{name} must be a stack of square matrices, got shape {A.shape}")
    return A


def jbld_matrix(A, B) -> np.ndarray:
    """(len(A), len(B)) matrix of jbld(A[i], B[j]), the one JBLD kernel.

    Each block of w >= 1 columns of B, a stack within _JBLD_BLOCK entries
    if one column fits, is one (d, d, w + 1, len(A) + 1) stack factored in
    place by chol_logdets_last: the midpoints B_j / 2 + A_i / 2 (halving is
    exact, so a self-pair gives the member itself), B_j after its row, A in
    the last row and I in the corner, so no stack has fewer than four
    members; A's is the last axis, so the kernel's passes run along it.
    """
    if len(A) == 0 or len(B) == 0:
        return np.zeros((len(A), len(B)))
    A = _as_stack(A, "A")
    B = _as_stack(B, "B")
    if A.shape[1:] != B.shape[1:]:
        raise DimensionMismatch(
            f"shape mismatch: {A.shape[1:]} vs {B.shape[1:]}")
    n, d = len(A), A.shape[1]
    w = max(1, _JBLD_BLOCK // (d * d * (n + 1)) - 1)
    At = A.transpose(1, 2, 0)
    D = np.empty((n, len(B)))
    for s in range(0, len(B), w):
        Bt = B[s:s + w].transpose(1, 2, 0)
        S = np.empty((d, d, Bt.shape[2] + 1, n + 1))
        np.add(0.5 * Bt[..., None], 0.5 * At[:, :, None], out=S[..., :-1, :-1])
        S[:, :, :-1, -1], S[:, :, -1, :-1], S[:, :, -1, -1] = Bt, At, np.eye(d)
        ld = chol_logdets_last(S)[1]
        D[:, s:s + w] = (ld[:-1, :-1] - 0.5 * (ld[-1, :-1] + ld[:-1, -1:])).T
    return D


# the batched forms a metric may carry, for knn.distance_matrix and
# knn.pairwise_distances
jbld.matrix = jbld_matrix
jbld.pairwise = lambda members: jbld_matrix(members, members)


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
    L, _ = chol_logdets(X + S)
    # 2 B (X+S)^-1, via the Cholesky factor of X+S
    W = scipy.linalg.cho_solve((L, True), B.T)
    Binv_T = scipy.linalg.solve_triangular(B, np.eye(B.shape[0]), lower=False).T
    grad = 2.0 * W.T - Binv_T
    return np.triu(grad)


def jbld_centroid(members: np.ndarray, tol: float = 1e-10,
                  max_iter: int = 200) -> np.ndarray:
    """Frechet mean under jbld: approximate minimizer of sum_i jbld(X, X_i).

    The fixed point of G(X) = [ mean_i ((X + X_i)/2)^-1 ]^-1 from the
    members' mean, Anderson-mixed over 3 steps, a trial that fails Cholesky
    replaced by the plain step.  tol bounds the last ||G(X) - X||_F; that
    image G(X), SPD, is returned, with a NoConvergence warning at the cap.
    """
    if len(members) == 0:
        raise EmptyInput("centroid of an empty set")
    members = _as_stack(members, "centroid members")

    def step(X):
        # ((X + X_i)/2)^-1 = L_i^-T L_i^-1, L_i the midpoint factor
        Linv = tril_inv(chol_logdets(0.5 * (X + members))[0])
        mean_inv = (Linv.transpose(0, 2, 1) @ Linv).mean(axis=0)
        Linv = tril_inv(chol_logdets(mean_inv)[0])
        X_new = Linv.T @ Linv
        X_new = 0.5 * (X_new + X_new.T)
        return X_new, X_new
    return _anderson(step, members.mean(0), tol, max_iter, 3, "jbld_centroid",
                     lambda X: scipy.linalg.lapack.dpotrf(X)[1] == 0)
