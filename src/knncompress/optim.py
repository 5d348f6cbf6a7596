"""Nonlinear conjugate gradient for SCC, and Anderson mixing for centroids.

scipy's CG (Polak-Ribiere+, strong-Wolfe line search, Gilbert-Nocedal
sufficient-descent test) does the work.  Where its line search fails, as
at an objective's (inf, 0) barrier, one Armijo step along -g is taken and
CG restarts from there with the iterations left.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .errors import NoConvergence


@dataclass
class NcgResult:
    x: np.ndarray
    fun: float
    history: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False


def _armijo_step(fg: Callable, x, f, g):
    """x - alpha g for the first alpha in 1, 1/2, ..., 2**-39 with a
    finite value below f - 1e-4 alpha |g|^2; None if there is none."""
    alpha = 1.0
    for _ in range(40):
        x_new = x - alpha * g
        f_new = fg(x_new)[0]
        if np.isfinite(f_new) and f_new <= f - 1e-4 * alpha * np.dot(g, g):
            return x_new
        alpha *= 0.5
    return None


def ncg_minimize(fg: Callable, x0: np.ndarray, max_iter: int = 200,
                 gtol: float = 1e-6) -> NcgResult:
    """Minimize f by Polak-Ribiere+ conjugate gradient.

    fg(x) must return (value, gradient).  gtol is relative to the initial
    gradient norm.  max_iter caps the accepted steps, CG and Armijo ones
    alike; every step descends, so the returned point is the best one.
    """
    memo = {}

    def fg_memo(x):  # scipy evaluates each start point again
        if "x" not in memo or not np.array_equal(x, memo["x"]):
            memo["x"], memo["fg"] = np.array(x), fg(x)
        return memo["fg"]

    x = np.array(x0, dtype=float)
    f, g = fg_memo(x)
    history = [f]

    def record(intermediate_result):
        history.append(intermediate_result.fun)

    options = {"gtol": gtol * max(np.linalg.norm(g), 1e-300), "norm": 2,
               "c2": 0.1}
    while True:
        with np.errstate(all="ignore"):
            res = minimize(fg_memo, x, jac=True, method="CG", callback=record,
                           options=dict(options,
                                        maxiter=max_iter + 1 - len(history)))
        x, f = res.x, res.fun
        if res.status != 2 or len(history) > max_iter:  # 2: line search failed
            break
        x_new = _armijo_step(fg_memo, x, f, res.jac)
        if x_new is None:
            break
        x, f = x_new, fg_memo(x_new)[0]
        history.append(f)
    return NcgResult(x=x, fun=f, history=history, n_iter=len(history) - 1,
                     converged=res.status == 0)


def _anderson(step: Callable, x, tol: float, max_iter: int, memory: int,
              name: str, admissible: Callable = lambda x: True):
    """Fixed point of step by Anderson mixing (Walker & Ni, SINUM 2011):
    step(x) = (g, out); the next x is g less the mix of the last `memory`
    image steps that best cancels f = g - x in least squares, or g if that
    is not finite or admissible.  Returns the out of the first step with
    ||f||_2 < tol, or of step max_iter with a NoConvergence warning."""
    G, F = [], []  # the last memory + 1 images and residuals
    for _ in range(max_iter):
        g, out = step(x)
        if np.linalg.norm(g - x) < tol:
            return out
        G, F, x = (G + [g])[-memory - 1:], (F + [g - x])[-memory - 1:], g
        dF = np.diff(F, axis=0).reshape(len(F) - 1, g.size).T
        c = np.linalg.lstsq(dF, F[-1].ravel(), rcond=None)[0]
        trial = g - np.tensordot(c, np.diff(G, axis=0), 1)  # g at first
        if np.isfinite(trial).all() and admissible(trial):
            x = trial
    warnings.warn(f"{name} hit max_iter; last image returned", NoConvergence)
    return out
