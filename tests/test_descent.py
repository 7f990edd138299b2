import numpy as np

from rvqr.descent import accelerated_minimize


def _quadratic(A, c):
    fun = lambda x: 0.5 * float(x @ A @ x) - float(c @ x)
    grad = lambda x: A @ x - c
    return fun, grad


def test_quadratic_exact_minimum(rng):
    A = np.diag([1.0, 10.0, 100.0])
    c = np.array([1.0, 2.0, 3.0])
    fun, grad = _quadratic(A, c)
    res = accelerated_minimize(fun, grad, np.zeros(3), tol=1e-10, max_iter=5000)
    assert res.converged
    np.testing.assert_allclose(res.x, np.linalg.solve(A, c), atol=1e-8)


def test_monotone_trace_with_restart(rng):
    A = np.diag([1.0, 1000.0])
    fun, grad = _quadratic(A, np.array([3.0, 1.0]))
    res = accelerated_minimize(fun, grad, np.array([5.0, 5.0]), tol=1e-9,
                               max_iter=20000, record_trace=True)
    assert res.converged
    t = np.array(res.trace)
    assert np.all(np.diff(t) <= 1e-12 * np.maximum(np.abs(t[:-1]), 1.0))


def test_already_converged_start():
    fun, grad = _quadratic(np.eye(2), np.zeros(2))
    res = accelerated_minimize(fun, grad, np.zeros(2), tol=1e-8)
    assert res.converged and res.iterations == 0


def test_nonconvergence_reported():
    fun, grad = _quadratic(np.diag([1.0, 1e6]), np.array([1.0, 1.0]))
    res = accelerated_minimize(fun, grad, np.full(2, 1e6), tol=1e-14, max_iter=3)
    assert not res.converged
    assert res.grad_inf > 1e-14


def test_polish_reaches_tight_tolerance_on_flat_valley():
    # objective differences near the optimum round to 0 long before the
    # gradient does; the terminal polish phase must still drive it down
    A = np.diag([1.0, 1e-4])
    fun, grad = _quadratic(A, np.zeros(2))
    res = accelerated_minimize(fun, grad, np.array([1.0, 1.0]), tol=1e-12,
                               max_iter=100000)
    assert res.converged
    assert res.grad_inf <= 1e-12


def test_curvature_matched_step_bounds_function_evaluations():
    # on the same ill-conditioned quadratic, a trial step that always
    # doubles is rejected about once per iteration, which breaks the bound
    A = np.diag([1.0, 1000.0])
    f, grad = _quadratic(A, np.array([3.0, 1.0]))
    calls = []
    res = accelerated_minimize(lambda x: calls.append(1) or f(x), grad,
                               np.array([5.0, 5.0]), tol=1e-9, max_iter=20000)
    assert res.converged
    assert len(calls) <= 1000
    assert res.backtracks < len(calls)

