"""Univariate Koenker-Bassett baseline: t-by-t pinball regression and the
right-continuous empirical quantile.

The kinked pinball loss is minimized through its Moreau envelope (quadratic
of width h around the kink) with the shared accelerated-descent engine; the
reported loss is evaluated on the unsmoothed objective.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .descent import accelerated_minimize
from .errors import ConfigError, NonConvergenceError
from .measures import value_scale as _scale

DEGENERATE_COL_TOL = 1e-12


@dataclass(frozen=True)
class QrConfig:
    tol: float = 1e-6
    max_iter: int = 50000
    smoothing: float = 1e-4  # kink width as a fraction of scale(Y)

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0 and self.max_iter >= 1
                and math.isfinite(self.smoothing) and self.smoothing > 0):
            raise ConfigError("invalid QR solver configuration")


@dataclass(frozen=True)
class QrFit:
    t: float
    alpha: float
    beta: np.ndarray
    loss: float
    iterations: int


@dataclass(frozen=True)
class QrCurve:
    t_grid: np.ndarray
    fits: list
    crossing_report: list = field(default_factory=list)


def pinball(z, t):
    """rho_t(z) = t z^- + (1 - t) z^+."""
    z = np.asarray(z, dtype=float)
    return t * np.maximum(-z, 0.0) + (1.0 - t) * np.maximum(z, 0.0)


def _pinball_smoothed(z, t, h):
    """Moreau envelope of rho_t with parameter h: quadratic on the kink,
    exact slopes -t and (1-t) outside [-h t, h (1-t)]."""
    z = np.asarray(z, dtype=float)
    lo, hi = -h * t, h * (1.0 - t)
    out = np.where(
        z < lo, -t * z - 0.5 * h * t * t,
        np.where(z > hi, (1.0 - t) * z - 0.5 * h * (1.0 - t) ** 2,
                 0.5 * z * z / h),
    )
    return out


def _pinball_smoothed_deriv(z, t, h):
    return np.clip(z / h, -t, 1.0 - t)


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


def fit_qr_t(data, t, cfg=QrConfig()):
    """Minimize the smoothed pinball objective over (alpha, beta).

    Covariate columns that are identically ~0 after centering get a
    rank-deficiency warning and a pinned zero coefficient.
    """
    if data.n_dim != 1:
        raise ConfigError("classical QR requires a univariate response")
    if not 0.0 < t < 1.0:
        raise ConfigError(f"probability level must be in (0,1), got {t}")
    y = data.Y[:, 0]
    X = data.X
    nu = data.nu
    h = cfg.smoothing * _scale(y)
    # slopes -(1-t) / +t on the residual: the stationary point is the
    # t-quantile line, consistent with the generalized-inverse convention
    tt = 1.0 - t

    active = [k for k in range(data.n_cov)
              if np.abs(X[:, k]).max() > DEGENERATE_COL_TOL]
    if len(active) < data.n_cov:
        warnings.warn(
            "degenerate covariate column(s) after centering; coefficients pinned to 0",
            RuntimeWarning,
        )
    Xa = X[:, active]
    na = Xa.shape[1]

    def residual(z):
        return y - z[0] - (Xa @ z[1:] if na else 0.0)

    def fun(z):
        return float(nu @ _pinball_smoothed(residual(z), tt, h))

    def grad(z):
        w = nu * _pinball_smoothed_deriv(residual(z), tt, h)
        g = np.empty(1 + na)
        g[0] = -w.sum()
        if na:
            g[1:] = -(w @ Xa)
        return g

    res = accelerated_minimize(fun, grad, np.zeros(1 + na),
                               tol=cfg.tol, max_iter=cfg.max_iter)
    if not res.converged:
        raise NonConvergenceError(
            f"pinball fit at t={t} stalled with gradient {res.grad_inf:.3e}",
            best=res.x,
        )
    beta = np.zeros(data.n_cov)
    beta[active] = res.x[1:]
    # reported loss is the unsmoothed E((Y - a - b.X)^+) + (1-t) a objective
    resid = y - res.x[0] - (X @ beta if data.n_cov else 0.0)
    loss = float(nu @ np.maximum(resid, 0.0) + (1.0 - t) * res.x[0])
    return QrFit(t=float(t), alpha=float(res.x[0]), beta=beta,
                 loss=loss, iterations=res.iterations)


def covariate_probes(data, levels=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)):
    """Componentwise covariate quantiles used as display/diagnostic probes."""
    if data.n_cov == 0:
        return np.zeros((1, 0))
    return np.array([
        [empirical_quantile(data.X[:, k], lv) for k in range(data.n_cov)]
        for lv in levels
    ])


def fit_qr_curve(data, t_grid, cfg=QrConfig()):
    """Independent t-by-t fits plus a quantile-crossing report at covariate
    decile probes."""
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    if t_grid.size and not np.all(np.diff(t_grid) > 0):
        raise ConfigError("t_grid must be strictly increasing")
    fits = [fit_qr_t(data, t, cfg) for t in t_grid]

    probes = covariate_probes(data)
    cross_tol = 1e-10 * _scale(data.Y[:, 0])
    crossings = []
    for x in probes:
        q = np.array([f.alpha + f.beta @ x for f in fits])
        for k in range(len(fits) - 1):
            if q[k + 1] < q[k] - cross_tol:
                crossings.append((tuple(x), (float(t_grid[k]), float(t_grid[k + 1]))))
    return QrCurve(t_grid=t_grid, fits=fits, crossing_report=crossings)
