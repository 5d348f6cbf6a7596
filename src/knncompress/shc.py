"""Stochastic histogram compression: learn m synthetic histograms.

Prototypes live in logit space (a softmax change of variable keeps them on
the simplex exactly); the Sinkhorn-distance gradient is approximated by
the centered optimal dual, pushed through the softmax Jacobian.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import rmhc_reduce, subsample
from .datasets import LabeledDataset
from .errors import NonFiniteInput, TooFewInputs, ValidationError
from .neighborhood import (
    assign,
    check_config,
    check_counts,
    gradient_coeffs,
    kl_loss,
    select_gamma_sq,
)
from .ot import clamp_histogram, sinkhorn_batch, sinkhorn_pairwise


@dataclass(frozen=True)  # checked once, when built
class ShcConfig:
    max_iter: int = 100
    learn_rate: float = 1.0
    gamma_sq: float | None = None   # None: grid-picked at initialization
    lam: float | None = None        # None: 10 / median(M)
    rmhc_steps: int = 100
    seed: int = 0
    sinkhorn_tol: float = 1e-6
    sinkhorn_max_iter: int = 2000

    def __post_init__(self):
        check_config(
            self, ("max_iter", "rmhc_steps", "seed", "sinkhorn_max_iter"),
            ("gamma_sq", "learn_rate", "lam", "sinkhorn_tol"))


@dataclass
class ShcState:
    logits: np.ndarray             # (m, d)
    labels: np.ndarray
    gamma_sq: float
    lam: float
    loss_history: list[float] = field(default_factory=list)
    best_snapshot: tuple[np.ndarray, float] | None = None

    @property
    def m(self) -> int:
        return self.logits.shape[0]

    def prototypes(self) -> np.ndarray:
        """(m, d) decoded histograms, exactly on the simplex."""
        return softmax_decode(self.logits)

    def to_dataset(self, template: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(
            family="histogram", dim=template.dim,
            members=self.prototypes(), labels=self.labels.copy(),
            ground_metric=template.ground_metric,
            metadata={"method": "shc", "gamma_sq": self.gamma_sq,
                      "lambda": self.lam})


def softmax_decode(w: np.ndarray) -> np.ndarray:
    """exp(w) / sum(exp(w)) on the last axis, max-shifted; shift invariant."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NonFiniteInput("logits must be finite")
    e = np.exp(w - w.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def default_lambda(M: np.ndarray) -> float:
    med = float(np.median(M[np.triu_indices_from(M, k=1)]))
    return 10.0 / med if med > 0 else 10.0


def shc_init(train: LabeledDataset, m: int, config: ShcConfig) -> ShcState:
    """Initialize from the RMHC selection: logits are the (clamped) logs of
    the selected training histograms.  rmhc_steps = 0 reduces to the
    stratified subsample."""
    if train.family != "histogram":
        raise ValidationError("shc requires a histogram dataset")
    check_counts(m=m)  # before the train-by-train matrix is solved
    if m > len(train):
        raise TooFewInputs(f"m={m} exceeds n={len(train)}")
    M = train.ground_metric
    lam = config.lam if config.lam is not None else default_lambda(M)
    if config.rmhc_steps > 0:
        D = sinkhorn_pairwise(train.members, M, lam, config.sinkhorn_tol,
                              config.sinkhorn_max_iter)
        picked = rmhc_reduce(train, m, D, config.rmhc_steps, config.seed)
    else:
        picked = subsample(train, m, config.seed)
    logits = np.log(clamp_histogram(train.members[picked.indices]))
    return ShcState(logits=logits, labels=train.labels[picked.indices],
                    gamma_sq=1.0, lam=lam)


class ShcObjective:
    """SHC's Sinkhorn solves for one run on train and m prototypes: the
    pairs, column j·n + i the pair (train i, prototype j), and the (d, n·m)
    V of the last solve, which seeds the next (None: the next is cold)."""

    def __init__(self, train: LabeledDataset, m: int):
        n = len(train)
        self.pairs = (np.tile(np.arange(n), m), np.repeat(np.arange(m), n))
        self.V = None


def shc_loss_grad(state: ShcState, train: LabeledDataset,
                  config: ShcConfig | None = None, objective=None):
    """KL loss under Sinkhorn distances and its gradient in logit space;
    objective, if given, is an ShcObjective on train for state.m.

    The per-pair distance gradient is the centered dual beta*, mapped to
    logits through the softmax Jacobian: h o beta* - (beta* . h) h.
    Pairs whose Sinkhorn solve, to config's tolerance and pass cap, did
    not converge are dropped from the gradient with a warning.  Returns
    (loss, (m, d) gradient, (n, m) distance matrix).
    """
    config = config or ShcConfig()
    objective = objective or ShcObjective(train, state.m)
    P = state.prototypes()
    n, (m, d) = len(train), P.shape
    dists, betas, objective.V, conv, _ = sinkhorn_batch(
        train.members, P, train.ground_metric, state.lam, config.sinkhorn_tol,
        config.sinkhorn_max_iter, objective.V, pairs=objective.pairs)
    D, conv = dists.reshape(m, n).T, conv.reshape(m, n).T
    if not conv.all():
        warnings.warn(f"{(~conv).sum()} Sinkhorn pairs did not converge; "
                      "skipped in the gradient", stacklevel=2)
    match = train.labels[:, None] == state.labels[None, :]
    probs, correct = assign(D, match, state.gamma_sq)
    loss = kl_loss(correct)
    # the Jacobian is linear: applied once to S_j = sum_i C_ij B_ij, B
    # centered, which is S_j centered; betas.T (d, n·m) is C-contiguous
    C = gradient_coeffs(probs, correct, match, state.gamma_sq)
    W = np.where(conv, C, 0.0)
    S = np.einsum("dmn,nm->md", betas.T.reshape(d, m, n), W)
    S -= S.mean(axis=1, keepdims=True)
    grads = S * P - (S * P).sum(axis=1, keepdims=True) * P
    return loss, grads, D


def _train_error(D: np.ndarray, proto_labels: np.ndarray,
                 train_labels: np.ndarray) -> float:
    pred = proto_labels[np.argmin(D, axis=1)]
    return float(np.mean(pred != train_labels))


def shc_compress(train: LabeledDataset, m: int,
                 config: ShcConfig | None = None) -> ShcState:
    """Gradient descent with an adaptive step size on the SHC objective.

    Steps that increase the KL loss or make it non-finite are rejected and
    halve the learning rate; accepted steps grow it by 1.1x.  The returned
    snapshot is the one with the best training 1-NN error (ties broken by
    KL loss).
    """
    config = config or ShcConfig()
    return descend(shc_init(train, m, config), train, config)


def descend(start: ShcState, train: LabeledDataset,
            config: ShcConfig) -> ShcState:
    """``shc_compress``'s descent from start, on a copy of it: start is
    left as it is, so several descents can share it."""
    gamma_sq = start.gamma_sq if config.gamma_sq is None else config.gamma_sq
    state = ShcState(start.logits, start.labels, gamma_sq, start.lam)
    objective = ShcObjective(train, start.m)
    loss, grad, D = shc_loss_grad(state, train, config=config,
                                  objective=objective)
    if config.gamma_sq is None:  # picked on the start's distances
        state.gamma_sq = select_gamma_sq(D, state.labels, train.labels)
        loss, grad, D = shc_loss_grad(state, train, config=config,
                                      objective=objective)

    err = _train_error(D, state.labels, train.labels)
    best = (state.logits.copy(), loss, err)
    state.loss_history = [loss]
    lr = config.learn_rate
    w = state.logits
    for _ in range(config.max_iter):
        trial = ShcState(w - lr * grad, state.labels, state.gamma_sq,
                         state.lam)
        t_loss, t_grad, t_D = shc_loss_grad(
            trial, train, config=config, objective=objective)
        if not (t_loss <= loss):  # also rejects a NaN loss
            lr *= 0.5
            continue
        lr *= 1.1
        w, loss, grad, D = trial.logits, t_loss, t_grad, t_D
        state.loss_history.append(loss)
        err = _train_error(D, state.labels, train.labels)
        if err < best[2] or (err == best[2] and loss < best[1]):
            best = (w.copy(), loss, err)

    state.logits = best[0]
    state.best_snapshot = (best[0], best[1])
    return state
