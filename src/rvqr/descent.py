"""Accelerated gradient descent with backtracking and function-value restart.

Used by the smoothed pinball baseline (classical_qr), one way: one step
rule, and the restart always on. The momentum schedule is
t_{k+1} = (1 + sqrt(1 + 4 t_k^2)) / 2 with extrapolation
y = x + ((t_k - 1)/t_{k+1})(x - x_prev).

Each backtracking trial at step s along -g yields f(y - s g), and with it the
curvature of f along g at no extra cost:

    kappa = 2 (f(y - s g) - f(y) + s |g|^2) / (s^2 |g|^2).

Every line search, the restart's included, starts from the last accepted
step s and its kappa with the trial min(2 s, 1/kappa); a rejected trial
shrinks to min(s/2, max(1/kappa, s/10)). Where kappa is not a positive
finite number (rounding near F_RESOLUTION) the trial doubles or halves
instead.

Once the sufficient-decrease quantity drops below the objective's own
floating-point resolution, line-search decisions become noise; the loop then
switches to a terminal polish phase of plain gradient steps accepted on
gradient-norm descent, which needs no objective comparisons.
"""

from dataclasses import dataclass, field

import numpy as np

SUFFICIENT_DECREASE = 1e-4
STEP_GROWTH = 2.0
STEP_SHRINK = 0.5
MAX_SHRINK = 0.1  # a rejected trial shrinks by at most this factor
MIN_STEP = 1e-18
F_RESOLUTION = 4e-16


@dataclass
class DescentResult:
    x: np.ndarray
    fun: float
    grad_inf: float
    iterations: int
    converged: bool
    n_restarts: int = 0
    backtracks: int = 0  # rejected backtracking trials
    trace: list = field(default_factory=list)


def _backtrack(fun, x, fx, g, step, kappa):
    """Line search along -g from the last accepted step and its curvature.

    The first trial is min(2 step, 1/kappa); each rejected trial shrinks the
    step, until the sufficient-decrease condition holds. Returns (x_new,
    f_new, step, resolved, kappa, rejected): resolved is False when the
    required decrease is smaller than the objective's rounding error, i.e.
    the test has lost meaning; kappa is the curvature measured by the last
    trial (0 if none) and rejected counts the trials that failed.
    """
    gsq = float(g @ g)
    step *= STEP_GROWTH
    if kappa > 0:
        step = min(step, 1.0 / kappa)
    kappa, rejected = 0.0, 0
    while step > MIN_STEP:
        need = SUFFICIENT_DECREASE * step * gsq
        if need < F_RESOLUTION * max(abs(fx), 1.0):
            return x, fx, step, False, kappa, rejected
        x_new = x - step * g
        f_new = fun(x_new)
        kappa = 2.0 * (f_new - fx + step * gsq) / (step * step * gsq)
        if not (np.isfinite(kappa) and kappa > 0):
            kappa = 0.0  # rounding: not a usable curvature
        if f_new <= fx - need:
            return x_new, f_new, step, True, kappa, rejected
        rejected += 1
        if kappa > 0:
            step = min(STEP_SHRINK * step, max(1.0 / kappa, MAX_SHRINK * step))
        else:
            step *= STEP_SHRINK
    return x, fx, step, False, kappa, rejected


def _inf_norm(g):
    return float(np.abs(g).max(initial=0.0))


def _polish(grad, x, g, step, done, budget):
    """Plain gradient steps accepted when the gradient 2-norm does not grow."""
    gn = float(np.linalg.norm(g))
    it = 0
    while it < budget:
        it += 1
        x_new = x - step * g
        g_new = grad(x_new)
        gn_new = float(np.linalg.norm(g_new))
        if gn_new <= gn:
            x, g, gn = x_new, g_new, gn_new
            step *= 1.25
            if done(x, g):
                return x, g, it, True
        else:
            step *= STEP_SHRINK
            if step < MIN_STEP:
                break
    return x, g, it, done(x, g)


def accelerated_minimize(fun, grad, x0, tol=1e-8, max_iter=10000,
                         record_trace=False):
    """Minimize a smooth convex function; stops when the gradient inf-norm
    at the current iterate falls below tol.

    The recorded objective sequence is nonincreasing: any momentum-induced
    increase triggers a restart replaced by a plain backtracked gradient
    step from the previous iterate.
    """

    def done(x, g):
        return _inf_norm(g) <= tol

    x = np.asarray(x0, dtype=float).copy()
    x_prev = x.copy()
    tk, step, kappa = 1.0, 1.0, 0.0
    fx = fun(x)
    it = n_restarts = backtracks = 0
    trace = [fx] if record_trace else []

    g = grad(x)
    converged = x.size == 0 or done(x, g)
    while not converged and it < max_iter:
        it += 1
        tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        y = x + ((tk - 1.0) / tk_next) * (x - x_prev)
        gy = grad(y)
        x_new, f_new, step, resolved, kappa, rejected = _backtrack(
            fun, y, fun(y), gy, step, kappa)
        backtracks += rejected

        if resolved and f_new > fx:
            # momentum overshot: restart from the last good iterate
            n_restarts += 1
            tk_next = 1.0
            x_new, f_new, step, resolved, kappa, rejected = _backtrack(
                fun, x, fx, g, step, kappa)
            backtracks += rejected

        if not resolved:
            # objective differences hit the rounding floor: polish with
            # gradient-norm-monotone plain descent
            x, g, used, converged = _polish(grad, x, g, step, done,
                                            max_iter - it)
            it += used
            fx = fun(x)
            if record_trace:
                trace.append(fx)
            break

        x_prev = x
        x = x_new
        fx = f_new
        tk = tk_next
        if record_trace:
            trace.append(fx)

        g = grad(x)
        converged = done(x, g)

    return DescentResult(x, fx, _inf_norm(g), it, converged, n_restarts,
                         backtracks, trace)
