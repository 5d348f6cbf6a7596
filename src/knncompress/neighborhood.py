"""Stochastic 1-NN neighborhood: assignment probabilities, KL loss, and the
per-pair gradient coefficients shared by both compressors.

Each is a function of the (n, m) train-to-prototype distances, their (n, m)
label match and the sharpness gamma^2, which its callers have checked; none
knows the underlying descriptor family.  The module also holds the one rule
for the counts and settings that callers pass, by which every module checks
them.
"""
from __future__ import annotations

import numbers

import numpy as np

from .errors import (
    BadParameters, DegeneratePi, DimensionMismatch, EmptyPrototypeSet)

P_FLOOR = 1e-300     # floor for p_i before taking logs
P_DEGENERATE = 1e-30  # below this, gradient coefficients are meaningless


def is_a(value, kind) -> bool:
    """isinstance(value, kind) for a numeric kind, except that a bool is no
    number: the one place that decides it."""
    return isinstance(value, kind) and not isinstance(value, bool)


def check_counts(least: int = 0, **values) -> None:
    """BadParameters unless every value given is an integer >= least."""
    for name, value in values.items():
        if not is_a(value, numbers.Integral) or value < least:
            raise BadParameters(f"{name} must be at least {least} and an "
                                f"integer, got {value!r}")


def check_config(config, counts, positives) -> None:
    """BadParameters unless config's fields named in counts are integers
    >= 0 and those in positives None or real, positive and finite."""
    check_counts(**{name: getattr(config, name) for name in counts})
    for name in positives:
        value = getattr(config, name)
        if value is not None and not (is_a(value, numbers.Real)
                                      and 0 < value < np.inf):
            raise BadParameters(
                f"{name} must be positive and finite, got {value!r}")


def assign(distances: np.ndarray, match: np.ndarray,
           gamma_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """(probs, correct): the (n, m) p_ij = exp(-gamma^2 D_ij) / sum_k
    exp(-gamma^2 D_ik) and the (n,) p_i, the sum of p_ij over match."""
    # max-subtraction keeps the softmax stable for large gamma^2
    logits = -gamma_sq * distances
    logits -= logits.max(axis=1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, np.where(match, probs, 0.0).sum(axis=1)


def kl_loss(correct: np.ndarray) -> float:
    """-sum_i log p_i, with p_i floored to avoid infinities."""
    return float(-np.log(np.maximum(correct, P_FLOOR)).sum())


def gradient_coeffs(probs: np.ndarray, correct: np.ndarray,
                    match: np.ndarray, gamma_sq: float) -> np.ndarray:
    """c_ij = (p_ij / p_i) (delta_{y_i y_j} - p_i) gamma^2.

    The scalar multiplying the distance gradient for pair (i, j);
    wrong-label prototypes get c_ij <= 0, and each row sums to zero.
    """
    p = correct[:, None]
    if np.any(p < P_DEGENERATE):
        raise DegeneratePi(
            "some p_i underflew; gamma^2 too large or no same-label "
            "prototype reachable")
    return (probs / p) * (match - p) * gamma_sq


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
    if distances.shape != (len(train_labels), len(prototype_labels)):
        raise DimensionMismatch("distances must be (n, m) for the labels")
    if distances.shape[1] == 0:
        raise EmptyPrototypeSet("no prototypes")
    match = train_labels[:, None] == prototype_labels[None, :]
    grid = gamma_sq_grid(distances)
    best_g, best_loss = grid[4], np.inf  # grid[4] = 1 / med
    for g in grid:
        loss = kl_loss(assign(distances, match, g)[1])
        if loss < best_loss:
            best_g, best_loss = g, loss
    return best_g
