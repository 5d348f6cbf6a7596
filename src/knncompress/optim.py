"""Nonlinear conjugate gradient for the covariance compressor.

scipy's CG (Polak-Ribiere+, strong-Wolfe line search, Gilbert-Nocedal
sufficient-descent test) does the work.  Where its line search fails, as
at an objective's (inf, 0) barrier, one Armijo step along -g is taken and
CG restarts from there with the iterations left.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize


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
