import warnings

import numpy as np
import pytest

from knncompress.optim import ncg_minimize


def quadratic(seed=0, n=10):
    """f(x) = x'Ax/2 - b'x with A SPD (eigenvalues 1..10); its minimiser."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = (Q * np.linspace(1.0, 10.0, n)) @ Q.T
    b = rng.standard_normal(n)

    def fg(x):
        Ax = A @ x
        return 0.5 * x @ Ax - b @ x, Ax - b

    return fg, np.linalg.solve(A, b)


def rosenbrock(x):
    f = (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
    g = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                  200 * (x[1] - x[0] ** 2)])
    return f, g


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quadratic_converges_to_minimiser(seed):
    fg, x_star = quadratic(seed)
    res = ncg_minimize(fg, np.zeros(10), max_iter=200, gtol=1e-10)
    assert res.converged
    assert np.linalg.norm(res.x - x_star) < 1e-6
    assert all(b <= a for a, b in zip(res.history, res.history[1:]))
    assert res.fun == min(res.history)
    assert res.fun == fg(res.x)[0]


def test_barrier_returns_finite_point_inside():
    # (inf, 0) on and outside the unit ball, whose outside holds the
    # minimum: no line search may step out, nothing raises and nothing
    # warns (recorded, not raised, so a handler cannot swallow it)
    c = np.array([2.0, 1.0, 0.0])

    def fg(x):
        if np.linalg.norm(x) >= 1.0:
            return np.inf, np.zeros_like(x)
        return float(((x - c) ** 2).sum()), 2.0 * (x - c)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ncg_minimize(fg, np.zeros(3), max_iter=50)
    assert [str(w.message) for w in caught] == []
    assert np.isfinite(res.fun)
    assert np.linalg.norm(res.x) < 1.0
    assert res.fun == fg(res.x)[0]
    assert res.fun < fg(np.zeros(3))[0]
    assert np.isfinite(res.history).all()


def test_iteration_cap():
    res = ncg_minimize(rosenbrock, np.array([-1.2, 1.0]), max_iter=3)
    assert res.n_iter <= 3
    assert not res.converged
    assert len(res.history) <= 4
