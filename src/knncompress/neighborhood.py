"""Stochastic 1-NN neighborhood: assignment probabilities, KL loss, and the
per-pair gradient coefficients shared by both compressors.

The model is purely a function of the (n, m) train-to-prototype distance
matrix, the two label vectors, and the sharpness gamma^2; it knows nothing
about the underlying descriptor family.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParameters, DegeneratePi, DimensionMismatch, EmptyPrototypeSet)

P_FLOOR = 1e-300     # floor for p_i before taking logs
P_DEGENERATE = 1e-30  # below this, gradient coefficients are meaningless


@dataclass
class NeighborhoodModel:
    """The model at one gamma^2; its label match, assignment probabilities
    and correct-label mass are computed once, when it is built."""
    gamma_sq: float
    prototype_labels: np.ndarray  # (m,)
    train_labels: np.ndarray      # (n,)
    distances: np.ndarray         # (n, m), nonnegative

    def __post_init__(self):
        check_config(self, (), ("gamma_sq",))
        self.prototype_labels = np.asarray(self.prototype_labels)
        self.train_labels = np.asarray(self.train_labels)
        self.distances = np.asarray(self.distances, dtype=float)
        if self.distances.ndim != 2:
            raise DimensionMismatch("distances must be (n, m)")
        if self.distances.shape != (len(self.train_labels),
                                    len(self.prototype_labels)):
            raise DimensionMismatch("distances do not match the label counts")
        if self.distances.shape[1] == 0:
            raise EmptyPrototypeSet("no prototypes")
        # (n, m) boolean: prototype j shares the label of train point i
        self.label_match = (self.train_labels[:, None]
                            == self.prototype_labels[None, :])
        # max-subtraction keeps the softmax stable for large gamma^2
        logits = -self.gamma_sq * self.distances
        logits -= logits.max(axis=1, keepdims=True)
        # (n, m) p_ij = exp(-gamma^2 D_ij) / sum_k exp(-gamma^2 D_ik)
        self.probs = np.exp(logits)
        self.probs /= self.probs.sum(axis=1, keepdims=True)
        # (n,) p_i = sum over same-label prototypes of p_ij
        self.correct = np.where(self.label_match, self.probs, 0.0).sum(axis=1)


def check_config(config, counts, positives) -> None:
    """BadParameters unless config's fields named in counts are integers
    >= 0 and those in positives None or positive and finite (not NaN)."""
    for name in counts:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or value < 0:
            raise BadParameters(
                f"{name} must be at least 0 and an integer, got {value!r}")
    for name in positives:
        value = getattr(config, name)
        if value is not None and not 0 < value < np.inf:
            raise BadParameters(
                f"{name} must be positive and finite, got {value}")


def kl_loss(model: NeighborhoodModel) -> float:
    """-sum_i log p_i, with p_i floored to avoid infinities."""
    return float(-np.log(np.maximum(model.correct, P_FLOOR)).sum())


def gradient_coeffs(model: NeighborhoodModel) -> np.ndarray:
    """c_ij = (p_ij / p_i) (delta_{y_i y_j} - p_i) gamma^2.

    The scalar multiplying the distance gradient for pair (i, j);
    wrong-label prototypes get c_ij <= 0, and each row sums to zero.
    """
    p = model.correct[:, None]
    if np.any(p < P_DEGENERATE):
        raise DegeneratePi(
            "some p_i underflew; gamma^2 too large or no same-label "
            "prototype reachable")
    return (model.probs / p) * (model.label_match - p) * model.gamma_sq


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
