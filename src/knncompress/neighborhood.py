"""Stochastic 1-NN neighborhood: assignment probabilities, KL loss, and the
per-pair gradient coefficients shared by both compressors.

The model is purely a function of the (n, m) train-to-prototype distance
matrix, the two label vectors, and the sharpness gamma^2; it knows nothing
about the underlying descriptor family.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePi, DimensionMismatch, EmptyPrototypeSet

P_FLOOR = 1e-300     # floor for p_i before taking logs
P_DEGENERATE = 1e-30  # below this, gradient coefficients are meaningless


@dataclass
class NeighborhoodModel:
    gamma_sq: float
    prototype_labels: np.ndarray  # (m,)
    train_labels: np.ndarray      # (n,)
    distances: np.ndarray         # (n, m), nonnegative

    def __post_init__(self):
        self.prototype_labels = np.asarray(self.prototype_labels)
        self.train_labels = np.asarray(self.train_labels)
        self.distances = np.asarray(self.distances, dtype=float)
        if self.distances.ndim != 2:
            raise DimensionMismatch("distances must be (n, m)")
        if self.distances.shape != (len(self.train_labels),
                                    len(self.prototype_labels)):
            raise DimensionMismatch("distances do not match the label counts")

    @property
    def label_match(self) -> np.ndarray:
        """(n, m) boolean: prototype j shares the label of train point i."""
        return self.train_labels[:, None] == self.prototype_labels[None, :]


def assignment_probs(model: NeighborhoodModel) -> np.ndarray:
    """p_ij = exp(-gamma^2 D_ij) / sum_k exp(-gamma^2 D_ik), rows sum to 1.

    Max-subtraction keeps the softmax stable for large gamma^2.
    """
    if model.distances.shape[1] == 0:
        raise EmptyPrototypeSet("no prototypes")
    logits = -model.gamma_sq * model.distances
    logits -= logits.max(axis=1, keepdims=True)
    P = np.exp(logits)
    P /= P.sum(axis=1, keepdims=True)
    return P


def correct_prob(model: NeighborhoodModel) -> np.ndarray:
    """p_i = sum over same-label prototypes of p_ij."""
    P = assignment_probs(model)
    return np.where(model.label_match, P, 0.0).sum(axis=1)


def kl_loss(model: NeighborhoodModel) -> float:
    """-sum_i log p_i, with p_i floored to avoid infinities."""
    p = np.maximum(correct_prob(model), P_FLOOR)
    return float(-np.log(p).sum())


def gradient_coeffs(model: NeighborhoodModel) -> np.ndarray:
    """c_ij = (p_ij / p_i) (delta_{y_i y_j} - p_i) gamma^2.

    The scalar multiplying the distance gradient for pair (i, j);
    wrong-label prototypes get c_ij <= 0, and each row sums to zero.
    """
    P = assignment_probs(model)
    match = model.label_match
    p = np.where(match, P, 0.0).sum(axis=1)
    if np.any(p < P_DEGENERATE):
        raise DegeneratePi(
            "some p_i underflew; gamma^2 too large or no same-label "
            "prototype reachable")
    return (P / p[:, None]) * (match.astype(float) - p[:, None]) * model.gamma_sq


def gamma_sq_grid(distances: np.ndarray) -> list[float]:
    """{2^k / med : k = -4..4}, med the median distance (1 if not positive)."""
    med = float(np.median(distances))
    if med <= 0:
        med = 1.0
    return [2.0 ** k / med for k in range(-4, 5)]


def select_gamma_sq(distances: np.ndarray, prototype_labels: np.ndarray,
                    train_labels: np.ndarray) -> float:
    """Grid-search gamma^2 over gamma_sq_grid(distances) by training kl_loss.

    distances: the (typically initialization-time) train-to-prototype matrix.
    """
    grid = gamma_sq_grid(distances)
    best_g, best_loss = grid[4], np.inf  # grid[4] = 1 / med
    for g in grid:
        model = NeighborhoodModel(g, prototype_labels, train_labels, distances)
        loss = kl_loss(model)
        if loss < best_loss:
            best_g, best_loss = g, loss
    return best_g
