"""Stochastic covariance compression: learn m synthetic SPD prototypes.

Prototypes are parameterized by their upper-triangular Cholesky factors,
which keeps every iterate on the SPD cone, and optimized by nonlinear
conjugate gradient on the stochastic-neighborhood KL loss under the
Jensen-Bregman log-det divergence.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import subsample
from .datasets import LabeledDataset
from .errors import NotPositiveDefinite, ValidationError
from .neighborhood import (
    assign,
    check_config,
    gradient_coeffs,
    kl_loss,
    select_gamma_sq,
)
from .optim import ncg_minimize
from .spd import chol_logdets, chol_logdets_last, tril_inv_last

# steps taking a factor below this diagonal conditioning are rejected
_COND_FLOOR = 1e-14


@dataclass(frozen=True)  # checked once, when built
class SccConfig:
    max_iter: int = 200
    gamma_sq: float | None = None  # None: grid-picked at initialization
    seed: int = 0

    def __post_init__(self):
        check_config(self, ("max_iter", "seed"), ("gamma_sq",))


@dataclass
class SccState:
    factors: np.ndarray            # (m, d, d) upper-triangular
    labels: np.ndarray             # m prototype labels
    gamma_sq: float
    loss_history: list[float] = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.factors)

    def prototypes(self) -> np.ndarray:
        """(m, d, d) reconstructed SPD prototypes B_j.T @ B_j."""
        return self.factors.transpose(0, 2, 1) @ self.factors

    def to_dataset(self, template: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(
            family="covariance", dim=template.dim, members=self.prototypes(),
            labels=self.labels.copy(),
            metadata={"method": "scc", "gamma_sq": self.gamma_sq})


def scc_init(train: LabeledDataset, m: int, seed: int) -> SccState:
    """Class-stratified sample of m training covariances, Cholesky-factored."""
    if train.family != "covariance":
        raise ValidationError("scc requires a covariance dataset")
    idx = subsample(train, m, seed).indices
    L, _ = chol_logdets(train.members[idx])
    factors = np.ascontiguousarray(L.transpose(0, 2, 1))
    return SccState(factors=factors, labels=train.labels[idx], gamma_sq=1.0)


class SccObjective:
    """SCC's loss for one run on members and m prototypes: the halved
    members stack-last, (d, d, n), their log-dets, and the buffers each
    call writes in place, the midpoint factors L, (d, d, m, n), whose
    strict upper triangle stays 0, and a (d, m, n) work column."""

    def __init__(self, members: np.ndarray, m: int):
        self.Xh = np.ascontiguousarray(0.5 * members.transpose(1, 2, 0))
        self.ld_X = chol_logdets(members)[1]
        self.L = np.zeros(self.Xh.shape[:2] + (m, len(members)))
        self.work = np.empty(self.L.shape[1:])

    def distances(self, B: np.ndarray) -> np.ndarray:
        """(n, m) JBLD distances to the prototypes B_j' B_j; L then holds
        the factors of the midpoints X_i / 2 + S_j / 2 (halving is exact),
        built there one lower column at a time."""
        Sh = (0.5 * (B.transpose(0, 2, 1) @ B)).transpose(1, 2, 0)
        for j in range(len(Sh)):
            np.add(self.Xh[j:, j, None], Sh[j:, j, :, None], out=self.L[j:, j])
        ld_mid = chol_logdets_last(self.L, self.work)[1]
        # log|B_j' B_j| from B_j's diagonal: every factor stack is upper
        # triangular, SCC's optimizer points included, because scc_loss_grad's
        # np.triu zeroes the strict lower triangle of every gradient
        ld_S = 2.0 * np.log(np.abs(np.diagonal(B, axis1=1, axis2=2))).sum(axis=1)
        D = ld_mid - 0.5 * (self.ld_X + ld_S[:, None])
        return np.ascontiguousarray(D.T)  # rows contiguous, as kl_loss sums


def jbld_distance_matrix(factors, members, objective=None) -> np.ndarray:
    """(n, m) JBLD distances between members and prototypes, the loss's
    own, for gamma^2 selection; objective, if given, is on these members."""
    return (objective or SccObjective(members, len(factors))).distances(factors)


def scc_loss_grad(state: SccState, train: LabeledDataset, objective=None):
    """KL loss and its (m, d, d) gradient w.r.t. the upper-triangular factors;
    objective, if given, is an SccObjective on train's members.

    Gradient for prototype j is sum_i c_ij * d jbld(X_i, B_j' B_j)/d B_j,
    assembled as B_j V_j - (sum_i c_ij) B_j^-T with
    V_j = 2 sum_i c_ij (X_i + S_j)^-1 = sum_i c_ij L_ij^-T L_ij^-1, L_ij
    the midpoint factor of SccObjective.distances.  One pass over all pairs
    on its stack-last inverses: row k of each L_ij^-1 is zero past column
    k, so it adds an outer product to V_j's leading (k+1, k+1) block,
    summed over i by one (k+1, n) @ (n, k+1) product per prototype.
    """
    objective = objective or SccObjective(train.members, state.m)
    B = state.factors
    D = objective.distances(B)
    Linv = tril_inv_last(objective.L, objective.work)
    match = train.labels[:, None] == state.labels[None, :]
    probs, correct = assign(D, match, state.gamma_sq)
    loss = kl_loss(correct)
    C = gradient_coeffs(probs, correct, match, state.gamma_sq).T  # (m, n)
    V = np.zeros_like(B)
    for k in range(B.shape[1]):
        R = Linv[k, :k + 1]  # (k+1, m, n)
        V[:, :k + 1, :k + 1] += (R.transpose(1, 0, 2)
                                 @ (R * C).transpose(1, 2, 0))
    # B_j^-T is lower triangular with diagonal 1 / diag(B_j), and np.triu
    # keeps only that diagonal of it
    G = B @ V
    k = np.arange(B.shape[1])
    G[:, k, k] -= C.sum(axis=1)[:, None] * (1.0 / B[:, k, k])
    return loss, np.triu(G)


def scc_compress(train: LabeledDataset, m: int,
                 config: SccConfig | None = None) -> SccState:
    """Learn m synthetic SPD prototypes: ``descend`` from ``scc_init``."""
    config = config or SccConfig()
    return descend(scc_init(train, m, config.seed), train, config)


def descend(start: SccState, train: LabeledDataset, config: SccConfig,
            objective: SccObjective | None = None) -> SccState:
    """Conjugate-gradient descent on the raveled factor stack from start,
    which is left as it is, so descents can share a start and an objective
    (on train's members, for start.m prototypes).  Returns the last
    iterate, whose training KL loss is the lowest of the run (every step
    descends), with start's prototype labels."""
    shape, labels = start.factors.shape, start.labels
    objective = objective or SccObjective(train.members, start.m)
    gamma_sq = config.gamma_sq
    if gamma_sq is None:
        gamma_sq = select_gamma_sq(
            jbld_distance_matrix(start.factors, train.members, objective),
            labels, train.labels)

    def fg(x):
        # (inf, 0), which no line search accepts, at a non-finite or
        # degenerate factor, a midpoint that does not factor, or a
        # non-finite loss or gradient
        if not np.isfinite(x).all():
            return np.inf, np.zeros_like(x)
        B = x.reshape(shape)
        diag = np.abs(np.diagonal(B, axis1=1, axis2=2))
        lo, hi = diag.min(axis=1), diag.max(axis=1)
        if np.all(lo > 0.0) and np.all((lo / hi) ** 2 >= _COND_FLOOR):
            try:
                with np.errstate(all="ignore"):
                    loss, grads = scc_loss_grad(
                        SccState(B, labels, gamma_sq), train, objective)
            except NotPositiveDefinite:
                return np.inf, np.zeros_like(x)
            g = grads.ravel()
            if np.isfinite(loss) and np.isfinite(g).all():
                return loss, g
        return np.inf, np.zeros_like(x)

    result = ncg_minimize(fg, start.factors.ravel(), max_iter=config.max_iter)
    if not np.isfinite(result.fun):
        raise ValidationError(
            "scc cannot start from the sampled members: its objective "
            "rejects them (a factor below the conditioning floor, a "
            "midpoint that does not factor, or a non-finite loss)")
    state = SccState(result.x.reshape(shape), labels, gamma_sq, result.history)
    chol_logdets(state.prototypes())  # every factor reconstructs to SPD
    return state
