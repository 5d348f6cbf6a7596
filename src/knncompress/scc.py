"""Stochastic covariance compression: learn m synthetic SPD prototypes.

Prototypes are parameterized by their upper-triangular Cholesky factors,
which keeps every iterate on the SPD cone, and optimized by nonlinear
conjugate gradient on the stochastic-neighborhood KL loss under the
Jensen-Bregman log-det divergence.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledDataset, stratified_indices
from .errors import NotPositiveDefinite, TooFewInputs, ValidationError
from .neighborhood import (
    NeighborhoodModel,
    gradient_coeffs,
    kl_loss,
    select_gamma_sq,
)
from .optim import ncg_minimize
from .spd import _chol_logdet, logdets

# steps taking a factor below this diagonal conditioning are rejected
_COND_FLOOR = 1e-14


@dataclass
class SccConfig:
    max_iter: int = 200
    gtol: float = 1e-6
    gamma_sq: float | None = None  # None: grid-picked at initialization
    seed: int = 0


@dataclass
class SccState:
    factors: list[np.ndarray]      # m upper-triangular (d, d)
    labels: np.ndarray             # m prototype labels
    gamma_sq: float
    loss_history: list[float] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.factors)

    def prototypes(self) -> list[np.ndarray]:
        """Reconstructed SPD prototypes B_j.T @ B_j."""
        return [B.T @ B for B in self.factors]

    def to_dataset(self, template: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(
            family="covariance", dim=template.dim, members=self.prototypes(),
            labels=self.labels.copy(),
            metadata={"method": "scc", "gamma_sq": self.gamma_sq})


def scc_init(train: LabeledDataset, m: int, seed: int) -> SccState:
    """Class-stratified sample of m training covariances, Cholesky-factored."""
    if train.family != "covariance":
        raise ValidationError("scc requires a covariance dataset")
    if m > len(train):
        raise TooFewInputs(f"m={m} exceeds n={len(train)}")
    rng = np.random.default_rng(seed)
    idx = stratified_indices(train.labels, m, rng)
    # with logdet's jitter retry: a dataset accepts what that can factor
    factors = [_chol_logdet(train.members[i])[0].T.copy() for i in idx]
    return SccState(factors=factors, labels=train.labels[idx].copy(),
                    gamma_sq=1.0)


def jbld_midpoints(factors, members) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) JBLD distances between members X_i and prototypes B_j.T B_j,
    and the (m, n, d, d) lower Cholesky factors of their midpoints, all
    from one stacked Cholesky.  Member log-dets go through spd.logdets
    and its jitter retry, as in spd.jbld_matrix."""
    B, X = np.asarray(factors), np.asarray(members)
    S = B.transpose(0, 2, 1) @ B
    try:
        L = np.linalg.cholesky(0.5 * (X + S[:, None]))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("a midpoint is not SPD") from None
    mid = 2.0 * np.log(np.diagonal(L, axis1=2, axis2=3)).sum(axis=2)
    ld_S = 2.0 * np.log(np.abs(np.diagonal(B, axis1=1, axis2=2))).sum(axis=1)
    D = mid - 0.5 * (logdets(X) + ld_S[:, None])
    return np.ascontiguousarray(D.T), L  # rows contiguous, as kl_loss sums


def jbld_distance_matrix(factors, members) -> np.ndarray:
    """Distances of jbld_midpoints; kept while perfbench's tracer wraps it."""
    return jbld_midpoints(factors, members)[0]


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular matrices by forward
    substitution, one row per step over the stack held stack-last."""
    Lt = np.ascontiguousarray(np.moveaxis(L, (-2, -1), (0, 1)))
    M = np.zeros_like(Lt)
    for k in range(L.shape[-1]):
        M[k, k] = 1.0 / Lt[k, k]
        M[k, :k] = -(Lt[k, :k, None] * M[:k, :k]).sum(axis=0) * M[k, k]
    return np.moveaxis(M, (0, 1), (-2, -1))


def scc_loss_grad(state: SccState, train: LabeledDataset):
    """KL loss and its (m, d, d) gradient w.r.t. the upper-triangular factors.

    Gradient for prototype j is sum_i c_ij * d jbld(X_i, B_j' B_j)/d B_j,
    assembled as 2 B_j W_j - (sum_i c_ij) B_j^-T with
    W_j = sum_i c_ij (X_i + S_j)^-1 = 1/2 sum_i c_ij L_ij^-T L_ij^-1, L_ij
    the midpoint factor of jbld_midpoints.  One pass over all pairs; the
    sum over i is one (d, d n) @ (d n, d) product per prototype.
    """
    B = np.asarray(state.factors)
    D, L = jbld_midpoints(B, train.members)
    model = NeighborhoodModel(state.gamma_sq, state.labels, train.labels, D)
    loss = kl_loss(model)
    C = gradient_coeffs(model).T  # (m, n)
    # A[j, a, (k, i)] = L_ij^-1[k, a], so W_j = 1/2 A_j diag(c_j) A_j^T
    A = _tril_inv(L).transpose(0, 3, 2, 1).reshape(*B.shape[:2], -1)
    W = 0.5 * (A @ (A * np.tile(C, B.shape[1])[:, None]).transpose(0, 2, 1))
    Binv_T = _tril_inv(B.transpose(0, 2, 1))
    G = 2.0 * (B @ W) - C.sum(axis=1)[:, None, None] * Binv_T
    return loss, np.triu(G)


def _pack(factors, iu) -> np.ndarray:
    return np.asarray(factors)[:, iu[0], iu[1]].ravel()


def _unpack(x: np.ndarray, m: int, d: int, iu) -> np.ndarray:
    B = np.zeros((m, d, d))
    B[:, iu[0], iu[1]] = x.reshape(m, -1)
    return B


def scc_compress(train: LabeledDataset, m: int,
                 config: SccConfig | None = None) -> SccState:
    """Learn m synthetic SPD prototypes by conjugate-gradient descent.

    Returns the state with the best training KL loss encountered; prototype
    labels stay fixed throughout.
    """
    config = config or SccConfig()
    state = scc_init(train, m, config.seed)
    d = train.dim
    iu = np.triu_indices(d)

    D0 = jbld_midpoints(state.factors, train.members)[0]
    if config.gamma_sq is not None:
        state.gamma_sq = config.gamma_sq
    else:
        state.gamma_sq = select_gamma_sq(D0, state.labels, train.labels)

    def fg(x):
        # (inf, 0), which no line search accepts, at a degenerate factor
        # or a non-finite loss or gradient
        B = _unpack(x, m, d, iu)
        diag = np.abs(np.diagonal(B, axis1=1, axis2=2))
        lo, hi = diag.min(axis=1), diag.max(axis=1)
        if np.all(lo > 0.0) and np.all((lo / hi) ** 2 >= _COND_FLOOR):
            loss, grads = scc_loss_grad(
                SccState(list(B), state.labels, state.gamma_sq), train)
            g = _pack(grads, iu)
            if np.isfinite(loss) and np.isfinite(g).all():
                return loss, g
        return np.inf, np.zeros_like(x)

    result = ncg_minimize(fg, _pack(state.factors, iu),
                          max_iter=config.max_iter, gtol=config.gtol)
    B = _unpack(result.x, m, d, iu)
    try:  # every returned factor must reconstruct to SPD
        np.linalg.cholesky(B.transpose(0, 2, 1) @ B)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("optimizer returned a degenerate factor")
    return SccState(factors=list(B), labels=state.labels,
                    gamma_sq=state.gamma_sq, loss_history=result.history)
