"""Univariate Koenker-Bassett baseline: exact t-by-t quantile regression and
the right-continuous empirical quantile.

`fit_qr_curve` solves, level by level, the rank-score LP, the dual of
pinball regression,

    max_a sum_j nu_j y_j a_j  s.t.  A a = (1 - t) A 1,  0 <= a <= 1,
    A = (nu * [1, X])^T  (p x J, p = 1 + N),

by the Frisch-Newton interior point (Portnoy & Koenker, Statistical Science
1997; quantreg's rq.fit.fnb) with Mehrotra predictor-corrector steps; the
coefficients are minus the multipliers of the equality rows. The fit is
exact: it stops at a duality gap, which bounds the excess pinball loss, of
GAP_TOL times the response's spread.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonConvergenceError
from .measures import value_scale as _scale

# a covariate is kept if its residual after projection onto the intercept
# and the covariates kept before it exceeds this share of its norm (R's lm
# rank rule)
DEGENERATE_COL_TOL = 1e-7
GAP_TOL = 1e-12  # duality gap, relative to the response's spread
MAX_STEPS = 50
STEP_FRACTION = 0.9995  # share of the distance to the boundary a step takes
START_SLACK = 1e-3  # the start's dual slacks are >= this * nu_j * spread


@dataclass(frozen=True)
class QrFit:
    t: float
    alpha: float
    beta: np.ndarray
    loss: float
    iterations: int


def empirical_quantile(y, t):
    """inf{a : F_hat(a) > t}, the right-continuous generalized inverse."""
    y = np.sort(np.asarray(y, dtype=float).ravel())
    J = y.size
    if J == 0:
        raise ConfigError("empty sample")
    # smallest k with k/J strictly greater than t; the tiny slack keeps
    # t = k/J atoms on the strict side despite float rounding
    k = int(math.floor(t * J + 1e-9)) + 1
    k = min(max(k, 1), J)
    return float(y[k - 1])


def _independent_columns(data):
    """Covariates that are not constant and not collinear with the ones
    before them. The test runs on the raw columns X + x_mean, where a
    constant covariate is constant rather than centered rounding noise."""
    raw = data.X + data.x_mean
    active = []
    for k in range(data.n_cov):
        basis = np.column_stack([np.ones(data.n_obs), raw[:, active]])
        resid = raw[:, k] - basis @ np.linalg.lstsq(basis, raw[:, k], rcond=None)[0]
        if np.linalg.norm(resid) > DEGENERATE_COL_TOL * np.linalg.norm(raw[:, k]):
            active.append(k)
    return active


def _step_length(*pairs):
    """min(1, STEP_FRACTION h), h the largest step with v + h dv >= 0 for
    every (v, dv) pair, v > 0."""
    worst = max(float(np.max(-dv / v)) for v, dv in pairs)
    return min(1.0, STEP_FRACTION / worst) if worst > 0 else 1.0


def _frisch_newton(A, c, t, tol, slack):
    """min c.x s.t. A x = b = A 1 (1 - t), x + s = 1, x, s >= 0, and its dual
    max b.y - sum(w) s.t. A'y + z - w = c, z, w >= 0, from the feasible
    x = 1 - t and the least-squares y, whose slacks z, w are shifted up by
    `slack`. Steps keep both sides feasible and drive x z and s w to 0.
    Returns (y, steps, gap) at the first gap <= tol or after MAX_STEPS.
    """
    x, s = np.full(c.size, 1.0 - t), np.full(c.size, t)
    b = A @ x
    y = np.linalg.lstsq(A.T, c, rcond=None)[0]
    r = c - A.T @ y
    z = np.maximum(r, 0.0) + slack
    w = z - r
    for steps in range(MAX_STEPS + 1):
        # the dual value of y at its best w = max(A'y - c, 0), not at the
        # iterate's w, whose rounding grows with the largest step taken
        gap = float(c @ x - b @ y + np.maximum(A.T @ y - c, 0.0).sum())
        if gap <= tol or steps == MAX_STEPS:
            return y, steps, gap
        # predictor: the affine Newton step towards x z = s w = 0
        zx, ws = z / x, w / s
        q = 1.0 / (zx + ws)
        r = z - w
        AQ = A * q
        M = AQ @ A.T
        dy = np.linalg.solve(M, AQ @ r)
        dx = q * (A.T @ dy - r)
        dz = -z - zx * dx
        dw = -w + ws * dx
        fp = _step_length((x, dx), (s, -dx))
        fd = _step_length((z, dz), (w, dw))
        if min(fp, fd) < 1.0:
            # corrector: centre on mu = sigma x.z / 2J with Mehrotra's
            # sigma = (predicted / current complementarity)^3, and add the
            # predictor's second-order terms
            mu = float(z @ x + w @ s)
            pred = float((z + fd * dz) @ (x + fp * dx) + (w + fd * dw) @ (s - fp * dx))
            mu *= (pred / mu) ** 3 / (2 * c.size)
            dxdz = dx * dz / x
            dsdw = dx * dw / s  # -ds dw / s, as ds = -dx
            rhs = r - mu * (1.0 / x - 1.0 / s) + dxdz + dsdw
            dy = np.linalg.solve(M, AQ @ rhs)
            dx = q * (A.T @ dy - rhs)
            dz = mu / x - z - dxdz - zx * dx
            dw = mu / s - w + dsdw + ws * dx
            fp = _step_length((x, dx), (s, -dx))
            fd = _step_length((z, dz), (w, dw))
        x += fp * dx
        s -= fp * dx
        y += fd * dy
        z += fd * dz
        w += fd * dw


def fit_qr_curve(data, t_grid):
    """Exact pinball regression of Y on (1, X) at each level of t_grid, one
    QrFit per level; `iterations` counts interior-point steps. A covariate
    that is constant or collinear with the intercept and the covariates
    before it gets one warning and a zero coefficient at every level. A gap
    above GAP_TOL times the spread after MAX_STEPS steps raises
    NonConvergenceError.
    """
    if data.n_dim != 1:
        raise ConfigError("classical QR requires a univariate response")
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    for t in t_grid:
        if not 0.0 < t < 1.0:
            raise ConfigError(f"probability level must be in (0,1), got {t}")
    y, nu, scale = data.Y[:, 0], data.nu, _scale(data.Y[:, 0])
    active = _independent_columns(data)
    if len(active) < data.n_cov:
        warnings.warn("covariate column(s) constant or collinear with the "
                      "others; coefficients pinned to 0", RuntimeWarning)
    A = (nu[:, None] * np.column_stack([np.ones(data.n_obs), data.X[:, active]])).T
    c, tol, slack = -nu * y, GAP_TOL * scale, START_SLACK * scale * nu
    fits = []
    for t in t_grid:
        y_dual, steps, gap = _frisch_newton(A, c, t, tol, slack)
        coef = -y_dual
        if not gap <= tol:
            raise NonConvergenceError(f"pinball fit at t={t}: duality gap {gap:.3e} "
                                      f"after {steps} interior-point steps", best=coef)
        beta = np.zeros(data.n_cov)
        beta[active] = coef[1:]
        # reported loss is the LP's E((Y - a - b.X)^+) + (1-t) (a + b.E X)
        resid = y - coef[0] - data.X @ beta
        loss = float(nu @ np.maximum(resid, 0.0) + (1.0 - t) * (coef[0] + nu @ data.X @ beta))
        fits.append(QrFit(t=float(t), alpha=float(coef[0]), beta=beta,
                          loss=loss, iterations=steps))
    return fits
