"""Stochastic histogram compression: learn m synthetic histograms.

Prototypes live in logit space (a softmax change of variable keeps them on
the simplex exactly); the Sinkhorn-distance gradient is approximated by
the centered optimal dual, pushed through the softmax Jacobian.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .baselines import rmhc_reduce
from .datasets import LabeledDataset
from .errors import NonFiniteInput, TooFewInputs, ValidationError
from .neighborhood import (
    NeighborhoodModel,
    gradient_coeffs,
    kl_loss,
    select_gamma_sq,
)
from .ot import clamp_histogram, sinkhorn_batch, sinkhorn_pairwise


@dataclass
class ShcConfig:
    max_iter: int = 100
    learn_rate: float = 1.0
    gamma_sq: float | None = None   # None: grid-picked at initialization
    lam: float | None = None        # None: 10 / median(M)
    rmhc_steps: int = 100
    seed: int = 0
    sinkhorn_tol: float = 1e-6
    sinkhorn_max_iter: int = 2000
    diagonal_jacobian: bool = False  # ablation: drop the softmax cross terms


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
        return np.stack([softmax_decode(w) for w in self.logits])

    def to_dataset(self, template: LabeledDataset) -> LabeledDataset:
        return LabeledDataset(
            family="histogram", dim=template.dim,
            members=list(self.prototypes()), labels=self.labels.copy(),
            ground_metric=template.ground_metric,
            metadata={"method": "shc", "gamma_sq": self.gamma_sq,
                      "lambda": self.lam})


def softmax_decode(w: np.ndarray) -> np.ndarray:
    """exp(w) / sum(exp(w)) with max-subtraction; shift invariant."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise NonFiniteInput("logits must be finite")
    e = np.exp(w - w.max())
    return e / e.sum()


def default_lambda(M: np.ndarray) -> float:
    med = float(np.median(M[np.triu_indices_from(M, k=1)]))
    return 10.0 / med if med > 0 else 10.0


def shc_init(train: LabeledDataset, m: int, seed: int,
             rmhc_steps: int = 100, lam: float | None = None,
             sinkhorn_tol: float = 1e-6,
             sinkhorn_max_iter: int = 2000) -> ShcState:
    """Initialize from the RMHC selection: logits are the (clamped) logs of
    the selected training histograms.  rmhc_steps = 0 reduces to the
    stratified subsample."""
    if train.family != "histogram":
        raise ValidationError("shc requires a histogram dataset")
    if m > len(train):
        raise TooFewInputs(f"m={m} exceeds n={len(train)}")
    M = train.ground_metric
    lam = lam if lam is not None else default_lambda(M)
    dist_matrix = None
    if rmhc_steps > 0:
        H = np.stack(train.members)
        dist_matrix = sinkhorn_pairwise(H, M, lam, tol=sinkhorn_tol,
                                        max_iter=sinkhorn_max_iter)
    picked = rmhc_reduce(train, m, metric=None, steps=rmhc_steps, seed=seed,
                         dist_matrix=dist_matrix)
    logits = np.log(clamp_histogram(np.stack(
        [train.members[i] for i in picked.indices])))
    return ShcState(logits=logits, labels=picked.labels.copy(),
                    gamma_sq=1.0, lam=lam)


def _distances_and_betas(state: ShcState, H: np.ndarray, M: np.ndarray,
                         tol: float, max_iter: int,
                         warm: dict | None = None):
    """Sinkhorn distances (n, m), duals (m, n, d), convergence mask."""
    n, d = H.shape
    m = state.m
    D = np.empty((n, m))
    betas = np.empty((m, n, d))
    conv = np.empty((n, m), dtype=bool)
    for j in range(m):
        hj = softmax_decode(state.logits[j])
        V0 = warm.get(j) if warm is not None else None
        if V0 is not None and V0.shape != (d, n):
            V0 = None
        dists, b, V, ok, _ = sinkhorn_batch(H, hj, M, state.lam, tol=tol,
                                            max_iter=max_iter, V0=V0)
        D[:, j] = dists
        betas[j] = b
        conv[:, j] = ok
        if warm is not None:
            warm[j] = V
    return D, betas, conv


def shc_loss_grad(state: ShcState, train: LabeledDataset,
                  M: np.ndarray | None = None,
                  warm: dict | None = None,
                  sinkhorn_tol: float = 1e-6,
                  sinkhorn_max_iter: int = 2000,
                  diagonal_jacobian: bool = False):
    """KL loss under Sinkhorn distances and its gradient in logit space.

    The per-pair distance gradient is the centered dual beta*, mapped to
    logits through the softmax Jacobian: h o beta* - (beta* . h) h.
    Pairs whose Sinkhorn solve did not converge are dropped from the
    gradient with a warning.  Returns (loss, (m, d) gradient, (n, m)
    distance matrix).
    """
    M = M if M is not None else train.ground_metric
    H = np.stack(train.members)
    D, betas, conv = _distances_and_betas(state, H, M, sinkhorn_tol,
                                          sinkhorn_max_iter, warm)
    if not conv.all():
        warnings.warn(f"{(~conv).sum()} Sinkhorn pairs did not converge; "
                      "skipped in the gradient", stacklevel=2)
    model = NeighborhoodModel(state.gamma_sq, state.labels, train.labels, D)
    loss = kl_loss(model)
    C = gradient_coeffs(model)
    grads = np.zeros_like(state.logits)
    for j in range(state.m):
        h = softmax_decode(state.logits[j])
        B = betas[j]
        B = B - B.mean(axis=1, keepdims=True)  # center the duals
        if diagonal_jacobian:
            contrib = B * (h - h * h)[None, :]
        else:
            t = B * h[None, :]
            contrib = t - t.sum(axis=1, keepdims=True) * h[None, :]
        w = np.where(conv[:, j], C[:, j], 0.0)
        grads[j] = w @ contrib
    return loss, grads, D


def _train_error(D: np.ndarray, proto_labels: np.ndarray,
                 train_labels: np.ndarray) -> float:
    pred = proto_labels[np.argmin(D, axis=1)]
    return float(np.mean(pred != train_labels))


def shc_compress(train: LabeledDataset, m: int,
                 M: np.ndarray | None = None,
                 config: ShcConfig | None = None) -> ShcState:
    """Gradient descent with an adaptive step size on the SHC objective.

    Steps that increase the KL loss or make it non-finite are rejected and
    halve the learning rate; accepted steps grow it by 1.1x.  The returned
    snapshot is the one with the best training 1-NN error (ties broken by
    KL loss).
    """
    config = config or ShcConfig()
    M = M if M is not None else train.ground_metric
    state = shc_init(train, m, config.seed, rmhc_steps=config.rmhc_steps,
                     lam=config.lam, sinkhorn_tol=config.sinkhorn_tol,
                     sinkhorn_max_iter=config.sinkhorn_max_iter)

    warm: dict = {}
    kw = dict(M=M, warm=warm, sinkhorn_tol=config.sinkhorn_tol,
              sinkhorn_max_iter=config.sinkhorn_max_iter,
              diagonal_jacobian=config.diagonal_jacobian)
    loss, grad, D = shc_loss_grad(state, train, **kw)
    if config.gamma_sq is not None:
        state.gamma_sq = config.gamma_sq
    else:
        state.gamma_sq = select_gamma_sq(D, state.labels, train.labels)
        loss, grad, D = shc_loss_grad(state, train, **kw)

    err = _train_error(D, state.labels, train.labels)
    best = (state.logits.copy(), loss, err)
    state.loss_history = [loss]
    lr = config.learn_rate
    w = state.logits
    for _ in range(config.max_iter):
        trial = ShcState(w - lr * grad, state.labels, state.gamma_sq,
                         state.lam)
        t_loss, t_grad, t_D = shc_loss_grad(trial, train, **kw)
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
