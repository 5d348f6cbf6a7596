"""Nonlinear conjugate gradient (Polak-Ribiere+) with strong-Wolfe line search.

Generic over a combined value-and-gradient callable; used by the covariance
compressor.  Line-search failures fall back to a steepest-descent restart
and then to plain Armijo backtracking rather than aborting.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import line_search


@dataclass
class NcgResult:
    x: np.ndarray
    fun: float
    history: list[float] = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False


class _FgCache:
    """Memoize the latest (f, g) so separate f/fprime callbacks share work."""

    def __init__(self, fg: Callable):
        self._fg = fg
        self._x = None
        self._f = None
        self._g = None

    def _eval(self, x):
        if self._x is None or not np.array_equal(x, self._x):
            self._x = np.array(x)
            self._f, self._g = self._fg(x)
        return self._f, self._g

    def f(self, x):
        return self._eval(x)[0]

    def g(self, x):
        return np.array(self._eval(x)[1])


def _backtrack(cache: _FgCache, x, p, f0, g0):
    """Armijo backtracking; returns alpha, or None."""
    slope = float(np.dot(g0, p))
    if slope >= 0:
        return None
    alpha = 1.0
    for _ in range(40):
        f_new = cache.f(x + alpha * p)
        if np.isfinite(f_new) and f_new <= f0 + 1e-4 * alpha * slope:
            return alpha
        alpha *= 0.5
    return None


def ncg_minimize(fg: Callable, x0: np.ndarray, max_iter: int = 200,
                 gtol: float = 1e-6) -> NcgResult:
    """Minimize f via Polak-Ribiere+ conjugate gradient.

    fg(x) must return (value, gradient).  gtol is relative to the initial
    gradient norm.  Restarts to steepest descent every 10 * len(x0)
    iterations and whenever the conjugate direction fails to descend.
    The returned point is the best accepted iterate.
    """
    cache = _FgCache(fg)
    x = np.array(x0, dtype=float)
    f, g = cache._eval(x)
    g0_norm = np.linalg.norm(g)
    history = [f]
    best_x, best_f = x.copy(), f

    def wolfe_step(p):
        """Strong-Wolfe step along p from the current x; alpha, or None."""
        with np.errstate(all="ignore"):
            try:
                return line_search(cache.f, cache.g, x, p, gfk=g, old_fval=f,
                                   old_old_fval=old_old_fval, c1=1e-4, c2=0.1,
                                   maxiter=25)[0]
            except Exception:
                return None

    p = -g
    old_old_fval = f + np.linalg.norm(g) / 2
    restart_period = max(10 * len(x), 1)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        if np.linalg.norm(g) <= gtol * max(g0_norm, 1e-300):
            converged = True
            break
        if it % restart_period == 0 or np.dot(g, p) >= 0:
            p = -g

        alpha = wolfe_step(p)
        if alpha is None and not np.array_equal(p, -g):
            # restart with steepest descent before giving up
            p = -g
            alpha = wolfe_step(p)
        if alpha is None:
            alpha = _backtrack(cache, x, -g, f, g)
            if alpha is None:
                break
            p = -g

        old_old_fval = f
        x = x + alpha * p
        g_prev = g
        f, g = cache._eval(x)
        history.append(f)
        if f < best_f:
            best_f, best_x = f, x.copy()

        # Polak-Ribiere+ with automatic reset on negative beta
        denom = float(np.dot(g_prev, g_prev))
        beta = max(0.0, float(np.dot(g, g - g_prev)) / denom) if denom > 0 else 0.0
        p = -g + beta * p

    return NcgResult(x=best_x, fun=best_f, history=history, n_iter=it,
                     converged=converged)
