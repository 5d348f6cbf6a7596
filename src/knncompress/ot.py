"""Histograms on the simplex: Sinkhorn distance, exact EMD, barycenters.

Histograms are 1-D numpy arrays summing to one; the ground metric is a
finite, symmetric, nonnegative ``(d, d)`` cost matrix with zero diagonal.
One Sinkhorn solver, ``_scale_columns``, serves every caller: ``sinkhorn``
is its one-column form, ``sinkhorn_batch`` its n-column form, and
``sinkhorn_matrix`` loops that over second marginals.  It exposes the dual
variables, whose centered second block is the approximate gradient of the
distance w.r.t. the second marginal.  Its log domain and the barycenter
use a hand-written max-shifted log-sum-exp.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .errors import (
    BadParameters,
    DimensionMismatch,
    EmptyInput,
    InfeasibleMarginals,
    NoConvergence,
    NonFiniteInput,
    NotConverged,
    NumericalError,
)

# entries below this are clamped before Sinkhorn scaling (exact zeros stall
# the iteration); affects distances by O(eps * d * max M)
CLAMP_EPS = 1e-10


def check_histograms(H: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Check every row of the (n, d) stack H as a histogram, in one pass."""
    H = np.ascontiguousarray(H, dtype=float)
    if H.ndim != 2:
        raise DimensionMismatch(
            f"histograms must be 1-D, got shape {H.shape[1:]}")
    if not (H >= 0).all():  # also false for NaN
        raise InfeasibleMarginals("histogram has negative or NaN mass")
    mass = H.sum(axis=1)
    off = np.abs(mass - 1.0) > tol
    if off.any():
        raise InfeasibleMarginals(f"histogram mass {mass[off][0]} != 1")
    return H


def check_histogram(h: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    return check_histograms(np.asarray(h, dtype=float)[None], tol)[0]


def check_ground_metric(M: np.ndarray, dim: int | None = None) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"ground metric must be square, got {M.shape}")
    if dim is not None and M.shape[0] != dim:
        raise DimensionMismatch(
            f"ground metric dim {M.shape[0]} != histogram dim {dim}")
    if not np.isfinite(M).all():
        raise NonFiniteInput("the ground metric must be finite")
    if np.any(M < 0) or np.any(np.abs(np.diag(M)) > 0):
        raise InfeasibleMarginals("ground metric needs M >= 0 and zero diagonal")
    if np.any(np.abs(M - M.T) > 1e-9 * M.max(initial=0.0)):
        raise InfeasibleMarginals("ground metric must be symmetric")
    return M


def clamp_histogram(h: np.ndarray, eps: float = CLAMP_EPS) -> np.ndarray:
    """Lift zero bins to eps and renormalize (Sinkhorn stalls on exact
    zeros); a 2-D stack is clamped row by row."""
    h = np.maximum(np.asarray(h, dtype=float), eps)
    return h / h.sum(axis=-1, keepdims=True)


@dataclass
class SinkhornSolution:
    distance: float
    transport: np.ndarray
    dual_alpha: np.ndarray
    dual_beta: np.ndarray
    iterations: int
    converged: bool


def _scale_columns(H, hp, M, lam, tol, max_iter, V0=None):
    """Sinkhorn scaling of the first marginals H (n, d), as the columns of
    one (d, n) block, against the shared second marginal hp.

    Marginals are checked and clamped once per call.  Alternating scaling
    iterations on K = exp(-lam * M) run on a working block of the active
    columns; the K @ V of each iteration's L1 marginal check is the next
    one's denominator.  A column leaves the block, with its scalings, once
    its violation is below tol or NaN, so its result does not depend on
    the other columns, and the block is compacted only when one leaves.
    A column whose distance or scalings end non-finite is solved again,
    from a cold start, in the log domain.  When K underflows, every column
    runs there, warm-started from log V0.  A finite column that did not
    converge is returned as it is: the log domain runs the same iteration
    at several times the cost.  Returns (distances (n,), log scalings F
    and G (d, n), V (d, n) to seed a warm start, converged (n,), loop
    passes run in both domains).
    """
    HT = clamp_histogram(check_histograms(H)).T
    hp = clamp_histogram(check_histogram(hp))
    d, n = HT.shape
    if d != hp.shape[0]:
        raise DimensionMismatch(f"marginal dims {d} vs {hp.shape[0]}")
    M = check_ground_metric(M, d)
    if not 0 < lam < np.inf:  # also false for NaN
        raise InfeasibleMarginals("lambda must be positive and finite")
    if max_iter < 1:
        raise BadParameters("max_iter must be at least 1")
    K = np.exp(-lam * M)
    V = np.ones((d, n)) if V0 is None else np.array(V0, dtype=float)
    if V.shape != (d, n):
        raise DimensionMismatch(f"warm start shape {V.shape} != {(d, n)}")
    if not ((V > 0) & np.isfinite(V)).all():
        raise BadParameters("warm start must be finite and positive")
    with np.errstate(all="ignore"):
        if np.any(K == 0.0):
            G0, it, V = np.log(V).T, 0, np.ones((d, n))
            dists, F, G = np.empty(n), np.empty_like(V), np.empty_like(V)
            conv, redo = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        else:
            U, conv = np.empty_like(V), np.zeros(n, dtype=bool)
            act, Ha, KV, it = np.arange(n), HT, K @ V, 0
            while act.size and it < max_iter:
                it += 1
                Ua = Ha / KV
                Va = hp[:, None] / (K.T @ Ua)
                KV = K @ Va
                err = np.abs(Ua * KV - Ha).sum(axis=0)
                out = ~(err >= tol) | (it == max_iter)  # NaN leaves too
                if out.any():
                    j, keep = act[out], ~out
                    U[:, j], V[:, j] = Ua[:, out], Va[:, out]
                    conv[j] = err[out] < tol
                    act, Ha, KV = act[keep], Ha[:, keep], KV[:, keep]
            dists = np.sum(U * ((K * M) @ V), axis=0)
            F, G, G0 = np.log(U), np.log(V), None
            redo = ~(np.isfinite(dists) & np.isfinite(F).all(axis=0)
                     & np.isfinite(G).all(axis=0))
        if redo.any():
            d_log, F_log, G_log, conv[redo], it_log = _log_scaling(
                HT[:, redo], hp, M, lam, tol, max_iter, G0)
            dists[redo], F[:, redo], G[:, redo] = d_log, F_log.T, G_log.T
            V[:, redo] = 1.0
            it += it_log
    return dists, F, G, V, conv, it


def _logsumexp(A, axis):
    """log(exp(A).sum(axis)), shifted by A's max along axis; A finite."""
    m = A.max(axis, keepdims=True)
    return np.log(np.exp(A - m).sum(axis)) + m.squeeze(axis)


def _log_scaling(HT, hp, M, lam, tol, max_iter, G0=None):
    """The scaling iteration on f = log u, g = log v for the (d, p) block
    HT of clamped marginals, each a hand-written max-shifted log-sum-exp
    over a (p, d, d) stack; the row one of the marginal check is the next
    iteration's.  Each row leaves the working block once it converges, as
    in _scale_columns.  Returns (distances (p,), F, G (p, d), converged
    (p,), loop passes).
    """
    logK = -lam * M
    Ha = HT.T
    logHa, loghp = np.log(Ha), np.log(hp)
    G = np.zeros_like(Ha) if G0 is None else G0
    F, conv = np.empty_like(Ha), np.zeros(len(Ha), dtype=bool)
    act, it = np.arange(len(Ha)), 0
    L = _logsumexp(logK + G[:, None, :], 2)
    while act.size and it < max_iter:
        it += 1
        Fa = logHa - L
        Ga = loghp - _logsumexp(logK + Fa[:, :, None], 1)
        L = _logsumexp(logK + Ga[:, None, :], 2)
        err = np.abs(np.exp(Fa + L) - Ha).sum(axis=1)
        out = ~(err >= tol) | (it == max_iter)
        if out.any():
            j, keep = act[out], ~out
            F[j], G[j], conv[j] = Fa[out], Ga[out], err[out] < tol
            act, Ha, logHa, L = act[keep], Ha[keep], logHa[keep], L[keep]
    T = np.exp(F[:, :, None] + logK + G[:, None, :])
    return (T * M).sum(axis=(1, 2)), F, G, conv, it


def sinkhorn(h: np.ndarray, hp: np.ndarray, M: np.ndarray, lam: float,
             tol: float = 1e-9, max_iter: int = 10000,
             v0: np.ndarray | None = None) -> SinkhornSolution:
    """Entropy-regularized transport distance between h and hp.

    The one-column form of ``_scale_columns``.  The duals are recovered
    from the scalings (alpha = log u / lam, beta = log v / lam, each up to
    an additive constant); the distance is tr(T M), an upper bound on the
    exact EMD that tightens as lam grows.
    """
    V0 = None if v0 is None else np.asarray(v0, dtype=float)[:, None]
    dists, F, G, _, conv, it = _scale_columns(
        np.asarray(h, dtype=float)[None], hp, M, lam, tol, max_iter, V0)
    f, g = F[:, 0], G[:, 0]
    return SinkhornSolution(
        distance=float(dists[0]),
        transport=np.exp(f[:, None] - lam * np.asarray(M, dtype=float)
                         + g[None, :]),
        dual_alpha=f / lam,
        dual_beta=g / lam,
        iterations=it,
        converged=bool(conv[0]),
    )


def sinkhorn_grad_dual(sol: SinkhornSolution) -> np.ndarray:
    """Centered dual beta*: approximate gradient of the Sinkhorn distance
    with respect to its second marginal.

    Centering removes the additive-constant ambiguity of the dual.
    """
    if not sol.converged:
        raise NotConverged("Sinkhorn solution did not converge")
    beta = sol.dual_beta
    return beta - beta.mean()


def sinkhorn_batch(H: np.ndarray, hp: np.ndarray, M: np.ndarray, lam: float,
                   tol: float = 1e-9, max_iter: int = 10000,
                   V0: np.ndarray | None = None):
    """Solve sinkhorn(H[i], hp) for all rows of H at once.

    The n-column form of ``_scale_columns``: the scaling updates share
    the kernel, so the whole batch reduces to matrix products, and each
    column stops when it converges, as it would alone.  Returns
    (distances (n,), betas (n, d), V (d, n), converged (n,), iterations).
    V seeds warm starts of later calls.
    """
    dists, _, G, V, conv, it = _scale_columns(H, hp, M, lam, tol, max_iter,
                                              V0)
    return dists, (G / lam).T, V, conv, it


def sinkhorn_matrix(Q, P, M: np.ndarray, lam: float, tol: float = 1e-9,
                    max_iter: int = 10000, warm: dict | None = None):
    """Sinkhorn distances between the rows of Q (n, d) and of P (m, d).

    One ``sinkhorn_batch(Q, P[j])`` per row of P, looked up in this module
    when called.  ``warm`` maps j to the V of P[j]'s last call, which seeds
    this one and is replaced by it.  Returns (distances (n, m), betas
    (m, n, d), converged (n, m)).
    """
    Q, P = np.asarray(Q, dtype=float), np.asarray(P, dtype=float)
    n, m = len(Q), len(P)
    D, conv = np.empty((n, m)), np.empty((n, m), dtype=bool)
    betas = np.empty((m, n, P.shape[-1]))
    warm = {} if warm is None else warm
    for j in range(m if n else 0):
        D[:, j], betas[j], warm[j], conv[:, j], _ = sinkhorn_batch(
            Q, P[j], M, lam, tol, max_iter, warm.get(j))
    return D, betas, conv


def sinkhorn_pairwise(H: np.ndarray, M: np.ndarray, lam: float,
                      tol: float = 1e-9, max_iter: int = 10000) -> np.ndarray:
    """Symmetric (n, n) matrix of Sinkhorn distances among the rows of H."""
    H = np.asarray(H, dtype=float)
    n = H.shape[0]
    D = np.zeros((n, n))
    for j in range(1, n):
        D[:j, j] = D[j, :j] = sinkhorn_batch(H[:j], H[j], M, lam, tol,
                                             max_iter)[0]
    return D


# --- exact EMD --------------------------------------------------------------

def emd_exact(h: np.ndarray, hp: np.ndarray, M: np.ndarray) -> float:
    """Exact optimum of the transportation LP min tr(T M), T1 = h, T'1 = hp.

    One HiGHS linear program over the d*d entries of T; the last column
    sum follows from the others and is dropped.  Both marginals are
    divided by their sums first: a mass error the check accepts would
    otherwise move the optimum.  Meant as an oracle at small d; for a 1-D
    line metric it must equal the L1 distance between the cumulative sums.
    """
    h = check_histogram(h)
    hp = check_histogram(hp)
    if h.shape != hp.shape:
        raise DimensionMismatch(f"marginal dims {h.shape} vs {hp.shape}")
    M = check_ground_metric(M, h.shape[0])
    d = h.shape[0]
    sums = np.vstack([np.kron(np.eye(d), np.ones(d)),   # rows of T
                      np.kron(np.ones(d), np.eye(d))])  # columns of T
    res = linprog(M.ravel(), A_eq=sums[:-1],
                  b_eq=np.concatenate([h / h.sum(), hp / hp.sum()])[:-1],
                  bounds=(0, None), method="highs")
    if not res.success:
        raise NumericalError(f"EMD linear program failed: {res.message}")
    return float(res.fun)


# --- barycenter --------------------------------------------------------------

def sinkhorn_barycenter(members: list[np.ndarray], M: np.ndarray, lam: float,
                        tol: float = 1e-9, max_iter: int = 1000) -> np.ndarray:
    """Histogram minimizing sum_i D_S(b, h_i), by iterative Bregman projections.

    Fixed point on the shared scaling: all members are projected onto their
    marginal constraint, the barycenter is the geometric mean of the free
    marginals, and the shared scalings are updated until the barycenter
    stabilizes in L1.
    """
    if len(members) == 0:
        raise EmptyInput("barycenter of an empty set")
    H = clamp_histogram(check_histograms(members))
    N, d = H.shape
    M = check_ground_metric(M, d)
    if N == 1:
        return H[0].copy()

    logK = -lam * M
    G = np.zeros((N, d))  # log v_i
    b = np.full(d, 1.0 / d)
    for _ in range(max_iter):
        # F[i] = log u_i projecting onto the fixed marginals h_i
        F = np.log(H) - _logsumexp(logK[None, :, :] + G[:, None, :], 2)
        # free marginals log(K^T u_i); barycenter = geometric mean
        logm = _logsumexp(logK.T[None, :, :] + F[:, None, :], 2)
        logb = logm.mean(axis=0) + G.mean(axis=0)
        logb -= _logsumexp(logb, None)
        G = logb[None, :] - logm
        b_new = np.exp(logb)
        if np.abs(b_new - b).sum() < tol:
            return b_new
        b = b_new
    warnings.warn("sinkhorn_barycenter hit max_iter; returning last iterate",
                  NoConvergence)
    return b
