"""Histograms on the simplex: Sinkhorn distance, exact EMD, barycenters.

Histograms are 1-D numpy arrays summing to one; the ground metric is a
finite, symmetric, nonnegative ``(d, d)`` cost matrix with zero diagonal.
One Sinkhorn solver, ``_scale_columns``, serves every caller: ``sinkhorn``
is its one-column form and ``sinkhorn_batch`` its n-column form.  It
exposes the dual variables, whose centered second block is the
approximate gradient of the distance w.r.t. the second marginal.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import (
    BadParameters,
    DimensionMismatch,
    EmptyInput,
    InfeasibleMarginals,
    NoConvergence,
    NonFiniteInput,
    NotConverged,
    NumericalError,
    NumericalUnderflow,
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
    iterations on K = exp(-lam * M) run for all columns at once until each
    column's L1 marginal violation is below tol; the K @ V of that check is
    the next iteration's denominator.  A column whose distance or scalings
    end non-finite is solved again, from a cold start, in the log domain.
    When K underflows, every column runs there, warm-started from log V0.
    A finite column that did not converge is returned as it is: the log
    domain runs the same iteration at several times the cost.  Returns
    (distances (n,), log scalings F and G (d, n), V (d, n) to seed a warm
    start, converged (n,), iterations run in both domains).
    """
    HT = clamp_histogram(check_histograms(H)).T
    hp = clamp_histogram(check_histogram(hp))
    d, n = HT.shape
    if d != hp.shape[0]:
        raise DimensionMismatch(f"marginal dims {d} vs {hp.shape[0]}")
    M = check_ground_metric(M, d)
    if lam <= 0:
        raise InfeasibleMarginals("lambda must be positive")
    if max_iter < 1:
        raise BadParameters("max_iter must be at least 1")
    K = np.exp(-lam * M)
    if np.all(K == 0.0):
        raise NumericalUnderflow("exp(-lam*M) underflowed everywhere; lam too large")
    V = np.ones((d, n)) if V0 is None else np.array(V0, dtype=float)
    with np.errstate(all="ignore"):
        if np.any(K == 0.0):
            G0, it, V = np.log(V).T, 0, np.ones((d, n))
            dists, F, G = np.empty(n), np.empty_like(V), np.empty_like(V)
            conv, redo = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        else:
            KV = K @ V
            for it in range(1, max_iter + 1):
                U = HT / KV
                V = hp[:, None] / (K.T @ U)
                KV = K @ V
                err = np.abs(U * KV - HT).sum(axis=0)
                if not (err >= tol).any():  # a NaN column is not active
                    break
            dists = np.sum(U * ((K * M) @ V), axis=0)
            F, G, conv, G0 = np.log(U), np.log(V), err < tol, None
            redo = ~(np.isfinite(dists) & np.isfinite(F).all(axis=0)
                     & np.isfinite(G).all(axis=0))
    if redo.any():
        d_log, F_log, G_log, conv[redo], it_log = _log_scaling(
            HT[:, redo], hp, M, lam, tol, max_iter, G0)
        dists[redo], F[:, redo], G[:, redo] = d_log, F_log.T, G_log.T
        V[:, redo] = 1.0
        it += it_log
    return dists, F, G, V, conv, it


def _log_scaling(HT, hp, M, lam, tol, max_iter, G0=None):
    """The scaling iteration on f = log u, g = log v for the (d, p) block
    HT of clamped marginals, each logsumexp over a (p, d, d) stack; the
    row logsumexp of the marginal check is the next iteration's.  Returns
    (distances (p,), F and G (p, d), converged (p,), iterations).
    """
    logK = -lam * M
    H = HT.T
    logH, loghp = np.log(H), np.log(hp)
    G = np.zeros_like(H) if G0 is None else G0
    L = logsumexp(logK + G[:, None, :], axis=2)
    for it in range(1, max_iter + 1):
        F = logH - L
        G = loghp - logsumexp(logK + F[:, :, None], axis=1)
        L = logsumexp(logK + G[:, None, :], axis=2)
        err = np.abs(np.exp(F + L) - H).sum(axis=1)
        if not (err >= tol).any():
            break
    T = np.exp(F[:, :, None] + logK + G[:, None, :])
    return (T * M).sum(axis=(1, 2)), F, G, err < tol, it


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
    the kernel, so the whole batch reduces to matrix products.  Returns
    (distances (n,), betas (n, d), V (d, n), converged (n,), iterations).
    V seeds warm starts of later calls.
    """
    dists, _, G, V, conv, it = _scale_columns(H, hp, M, lam, tol, max_iter,
                                              V0)
    return dists, (G / lam).T, V, conv, it


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


# --- exact EMD via the transportation simplex -------------------------------

def emd_exact(h: np.ndarray, hp: np.ndarray, M: np.ndarray,
              max_pivots: int = 100000) -> float:
    """Exact optimum of the transportation LP min tr(T M), T1 = h, T'1 = hp.

    Transportation simplex with north-west-corner initialization and
    Bland's (lowest-index) entering rule.  Meant as an oracle at small d;
    for a 1-D line metric it must equal the L1 distance between the
    cumulative sums.
    """
    h = check_histogram(h)
    hp = check_histogram(hp)
    if h.shape != hp.shape:
        raise DimensionMismatch(f"marginal dims {h.shape} vs {hp.shape}")
    M = check_ground_metric(M, h.shape[0])
    d = h.shape[0]

    a = h / h.sum()
    b = hp / hp.sum()
    T, basis = _northwest_corner(a, b)
    basis_set = set(basis)

    for _ in range(max_pivots):
        u, v = _potentials(basis, M, d)
        entering = None
        # Bland's rule: lowest (i, j) with negative reduced cost
        R = M - u[:, None] - v[None, :]
        for i in range(d):
            neg = np.where(R[i] < -1e-12)[0]
            for j in neg:
                if (i, int(j)) not in basis_set:
                    entering = (i, int(j))
                    break
            if entering is not None:
                break
        if entering is None:
            return float(np.sum(T * M))

        cycle = _find_cycle(basis, entering)
        minus = cycle[1::2]
        theta = min(T[c] for c in minus)
        leaving = min((c for c in minus if T[c] <= theta), default=minus[0])
        for c in cycle[0::2]:
            T[c] += theta
        for c in minus:
            T[c] -= theta
        T[leaving] = 0.0
        basis.remove(leaving)
        basis_set.remove(leaving)
        basis.append(entering)
        basis_set.add(entering)
    raise NumericalError("transportation simplex exceeded pivot cap")


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution; returns (T, basis of 2d-1 cells)."""
    a = a.copy()
    b = b.copy()
    d = a.shape[0]
    T = np.zeros((d, d))
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        t = min(a[i], b[j])
        T[i, j] = t
        basis.append((i, j))
        a[i] -= t
        b[j] -= t
        if i == d - 1 and j == d - 1:
            break
        # advance one index at a time so the basis keeps 2d-1 cells even
        # under degeneracy
        if (a[i] <= b[j] and i < d - 1) or j == d - 1:
            i += 1
        else:
            j += 1
    return T, basis


def _potentials(basis, M, d):
    """Dual potentials u, v from the basis spanning tree (u[0] = 0)."""
    u = np.full(d, np.nan)
    v = np.full(d, np.nan)
    row_cells: list[list[int]] = [[] for _ in range(d)]
    col_cells: list[list[int]] = [[] for _ in range(d)]
    for (i, j) in basis:
        row_cells[i].append(j)
        col_cells[j].append(i)
    u[0] = 0.0
    stack = [("r", 0)]
    while stack:
        kind, k = stack.pop()
        if kind == "r":
            for j in row_cells[k]:
                if np.isnan(v[j]):
                    v[j] = M[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in col_cells[k]:
                if np.isnan(u[i]):
                    u[i] = M[i, k] - v[k]
                    stack.append(("r", i))
    return u, v


def _find_cycle(basis, entering):
    """Unique cycle formed by the entering cell and the basis tree.

    Returned as [entering, c1, c2, ...] with alternating +/- signs in that
    order.
    """
    i0, j0 = entering
    adj: dict[tuple[str, int], list[tuple[tuple[str, int], tuple[int, int]]]] = {}
    for (i, j) in basis:
        adj.setdefault(("r", i), []).append((("c", j), (i, j)))
        adj.setdefault(("c", j), []).append((("r", i), (i, j)))
    # DFS from row i0 to col j0 through the basis tree
    start, goal = ("r", i0), ("c", j0)
    stack = [(start, [])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        if node == goal:
            return [entering] + path
        for (nxt, cell) in adj.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, path + [cell]))
    raise NumericalError("degenerate basis: no cycle found")  # unreachable


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
        F = np.log(H) - logsumexp(logK[None, :, :] + G[:, None, :], axis=2)
        # free marginals log(K^T u_i); barycenter = geometric mean
        logm = logsumexp(logK.T[None, :, :] + F[:, None, :], axis=2)
        logb = logm.mean(axis=0) + G.mean(axis=0)
        logb -= logsumexp(logb)
        G = logb[None, :] - logm
        b_new = np.exp(logb)
        if np.abs(b_new - b).sum() < tol:
            return b_new
        b = b_new
    warnings.warn("sinkhorn_barycenter hit max_iter; returning last iterate",
                  NoConvergence)
    return b
