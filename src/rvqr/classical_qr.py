"""Univariate Koenker-Bassett baseline: exact t-by-t quantile regression and
the right-continuous empirical quantile.

`fit_qr_curve` solves, level by level, the rank-score LP, the dual of
pinball regression,

    max_a sum_j nu_j y_j a_j  s.t.  A a = (1 - t) A 1,  0 <= a <= 1,
    A = (nu * [1, X])^T  (p x J, p = 1 + N),

whose coefficients are minus the multipliers of the equality rows. A level
runs the Frisch-Newton interior point (Portnoy & Koenker, Statistical
Science 1997; quantreg's rq.fit.fnb) with Mehrotra predictor-corrector
steps. Near the end it tries the optimal vertex the iterate points to
(basis identification, Megiddo, ORSA J. Computing 1991), which makes the fit
exact to round-off. Either way it stops at a duality gap, which bounds the
excess pinball loss, of GAP_TOL times the response's spread.

Levels differ only in the right-hand side, so one level's optimal basis is
a dual-feasible start for the next: a level after one that ended at a
vertex runs a bound-flipping dual simplex from it instead (the parametric
walk of Koenker & d'Orey, JRSS C 1987), a few pivots where the interior
point takes ~10 steps, and falls back to the interior point if it fails.
"""

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
# normal errors take at most ~20 steps a level, heavy tails many more: up to
# ~130 with Cauchy errors and ~200 with Pareto(0.7) ones, at J up to 10^5
MAX_STEPS = 500
STEP_FRACTION = 0.9995  # share of the distance to the boundary a step takes
# the vertex finish is tried once the gap is below this share of the first
# one; measured on a J = 5,000 curve, a try at every step cost more than the
# steps it saved
VERTEX_SHARE = 1e-3
FEAS_TOL = 1e-10  # round-off allowed in a vertex's bounds and rows
# dual simplex pivots a level may take before it falls back; curves of 19
# levels took at most 23 a level, with ties, heavy tails and N up to 3
MAX_PIVOTS = 100
PIVOT_TOL = 1e-9  # smallest |alpha_j| the ratio test takes as a pivot
START_SLACK = 1e-3  # the start's dual slacks are >= this * nu_j * spread


@dataclass(frozen=True)
class QrFit:
    """The fit at level t. `iterations` counts the level's interior-point
    steps, or its dual simplex pivots if it started from the previous
    level's vertex."""
    t: float
    alpha: float
    beta: np.ndarray
    loss: float
    iterations: int


def empirical_quantile(y, t):
    """inf{a : F_hat(a) > t}, the right-continuous generalized inverse.

    t is one level (returns a float) or an array of levels (returns an
    array of the same shape, from one sort of y).
    """
    y = np.sort(np.asarray(y, dtype=float).ravel())
    J = y.size
    if J == 0:
        raise ConfigError("empty sample")
    t = np.asarray(t, dtype=float)
    # smallest k with k/J strictly greater than t; the tiny slack keeps
    # t = k/J atoms on the strict side despite float rounding
    k = np.clip(np.floor(t * J + 1e-9).astype(int) + 1, 1, J)
    q = y[k - 1]
    return float(q) if t.ndim == 0 else q


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


def _basic_x(A, b, basis, upper):
    """x: 1 on `upper` and 0 elsewhere off the basis, and A x = b solved on
    the basis. Raises LinAlgError on a singular basis."""
    x = upper.astype(float)
    x[basis] = np.linalg.solve(A[:, basis], b - A @ x)
    return x


def _certify(A, c, b, x, y, excess, basis, row_tol):
    """The duality gap c.x - b.y + sum(max(excess, 0)), excess = A'y - c, if
    x_B lies in [0, 1] and A x = b, both to round-off (row_tol = FEAS_TOL *
    sum_j |A_ij|); else None."""
    xb = x[basis]
    if not (np.all(xb >= -FEAS_TOL) and np.all(xb <= 1.0 + FEAS_TOL)
            and np.all(np.abs(A @ x - b) <= row_tol)):
        return None
    return float(c @ x - b @ y + np.maximum(excess, 0.0).sum())


def _vertex(A, c, b, frac):
    """The basic solution on the 1 + N largest entries of `frac`: y from
    a_j.y = c_j on the basis, x_j = 1 where a_j.y > c_j off it and 0
    elsewhere, x on the basis from A x = b. Returns (y, gap, (basis, upper))
    if `_certify` accepts x, else None; `upper` marks the x_j = 1 off the basis.
    Such a y is dual feasible with w = max(A'y - c, 0) by construction, so
    the gap is round-off. The basis is in index order, as in
    `_dual_simplex`, so that both give the same y on the same basis."""
    basis = np.sort(np.argpartition(frac, -A.shape[0])[-A.shape[0]:])
    try:
        y = np.linalg.solve(A[:, basis].T, c[basis])
        excess = y @ A - c
        upper = excess > 0
        upper[basis] = False
        x = _basic_x(A, b, basis, upper)
    except np.linalg.LinAlgError:  # singular basis, e.g. repeated rows
        return None
    gap = _certify(A, c, b, x, y, excess, basis, FEAS_TOL * np.abs(A).sum(axis=1))
    return None if gap is None else (y, gap, (basis, upper))


def _dual_simplex(A, c, b, tol, basis, upper):
    """min c.x s.t. A x = b, 0 <= x <= 1 by the dual simplex with the
    bound-flipping ratio test (Kostina, Math. Meth. Oper. Res. 2002), from a
    dual-feasible basis, such as one optimal for another b. `upper` holds
    the nonbasic bounds, x_j = 1 where set; only a flip or a leaving
    variable changes it, never the sign of a reduced cost, which on tied
    data is 0 at many j. Updates (basis, upper) in place.
    Returns (y, pivots, gap, (basis, upper)) once `_certify` accepts x with
    gap <= tol, or None after a singular basis, an empty ratio test or
    MAX_PIVOTS pivots.
    """
    row_tol = FEAS_TOL * np.abs(A).sum(axis=1)
    for pivots in range(MAX_PIVOTS + 1):
        AB = A[:, basis]
        try:
            y = np.linalg.solve(AB.T, c[basis])
            x = _basic_x(A, b, basis, upper)
        except np.linalg.LinAlgError:
            return None
        excess = y @ A - c
        gap = _certify(A, c, b, x, y, excess, basis, row_tol)
        if gap is not None:
            return (y, pivots, gap, (basis, upper)) if gap <= tol else None
        if pivots == MAX_PIVOTS:
            return None
        # x_r, the basic x furthest outside [0, 1], leaves at the bound it
        # violates; its tableau row alpha = (A_B^-1 A)_r, signed so that the
        # reduced costs of the nonbasic j with alpha_j > 0 move towards 0
        xb = x[basis]
        k = int(np.argmax(np.maximum(-xb, xb - 1.0)))
        r, below = basis[k], xb[k] < 0.0
        short = -xb[k] if below else xb[k] - 1.0
        alpha = np.linalg.solve(AB.T, np.eye(A.shape[0])[k]) @ A
        alpha[basis] = 0.0
        alpha = np.where(upper != below, -alpha, alpha)
        cand = np.flatnonzero(alpha > PIVOT_TOL)
        size = alpha[cand]
        ratio = np.abs(excess[cand]) / size
        # breakpoints ratio_j are passed smallest first (ties: larger alpha_j
        # first) while their alpha_j leave x_r short of its bound; only the
        # smallest n are sorted, n growing until the pass ends inside them
        n = 64
        while True:
            near = np.argpartition(ratio, n)[:n] if n < cand.size else np.arange(cand.size)
            near = near[np.lexsort((-size[near], ratio[near]))]
            m = int(np.searchsorted(np.cumsum(size[near]), short))
            if near.size == cand.size or (m < n and ratio[near[m]] < ratio[near[-1]]):
                break
            n *= 4
        if m == cand.size:
            return None
        upper[cand[near[:m]]] ^= True  # the breakpoints passed flip their bound
        q = cand[near[m]]
        upper[r], upper[q] = not below, False
        basis[k] = q
        basis.sort()


def _step_length(worst):
    """min(1, STEP_FRACTION h), h the largest step with v + h dv >= 0, from
    worst = max(-dv / v) over the pairs (v, dv), v > 0."""
    return min(1.0, STEP_FRACTION / worst) if worst > 0 else 1.0


def _frisch_newton(A, c, t, tol, y, z, w):
    """min c.x s.t. A x = b = A 1 (1 - t), x + s = 1, x, s >= 0, and its dual
    max b.y - sum(w) s.t. A'y + z - w = c, z, w >= 0, from the feasible
    x = 1 - t and the dual start (y, z, w), which it updates in place.
    Steps keep both sides feasible and drive x z and s w to 0.
    Once the gap is below VERTEX_SHARE of its first value, each step first
    tries the vertex the iterate points to (`_vertex`).
    Returns (y, steps, gap, vertex) at the first gap <= tol or after
    MAX_STEPS; vertex is `_vertex`'s (basis, upper) if the fit ended there,
    else None.
    """
    J = c.size
    x, s = np.full(J, 1.0 - t), np.full(J, t)
    b = A @ x
    ix, is_, zx, ws, h, r, rx, rs = (np.empty(J) for _ in range(8))
    for steps in range(MAX_STEPS + 1):
        # the dual value of y at its best w = max(A'y - c, 0), not at the
        # iterate's w, whose rounding grows with the largest step taken
        np.dot(y, A, out=rx)
        rx -= c
        gap = float(c @ x - b @ y + np.maximum(rx, 0.0, out=rx).sum())
        if gap <= tol or steps == MAX_STEPS:
            return y, steps, gap, None
        if steps == 0:
            first_gap = gap
        elif gap <= VERTEX_SHARE * first_gap:
            vertex = _vertex(A, c, b, np.minimum(x, s))
            if vertex is not None and vertex[1] <= tol:
                return vertex[0], steps, vertex[1], vertex[2]
        # predictor: the affine Newton step towards x z = s w = 0
        np.reciprocal(x, out=ix)
        np.reciprocal(s, out=is_)
        np.multiply(z, ix, out=zx)
        np.multiply(w, is_, out=ws)
        np.add(zx, ws, out=h)
        q = 1.0 / h
        np.subtract(z, w, out=r)
        AQ = A * q
        Minv = np.linalg.inv(AQ @ A.T)  # for the predictor and the corrector
        dy = Minv @ (AQ @ r)
        dx = A.T @ dy
        dx -= r
        dx *= q
        # the predictor's dz / z = -1 - dx / x and dw / w = -1 + dx / s
        np.multiply(dx, ix, out=rx)
        np.multiply(dx, is_, out=rs)
        fp = _step_length(max(-rx.min(), rs.max()))
        fd = _step_length(1.0 + max(rx.max(), -rs.min()))
        if min(fp, fd) < 1.0:
            # corrector: centre on mu = sigma x.z / 2J with Mehrotra's
            # sigma = (predicted / current complementarity)^3, and add the
            # predictor's second-order terms. The predicted complementarity
            # expands, with dz - dw = -r - h dx, into
            # (1 - fd) mu + (fp - fd) r.dx + fp fd (dz - dw).dx, which is
            # >= 0 but can round below 0
            mu = float(z @ x + w @ s)
            rdx = float(r @ dx)
            pred = ((1.0 - fd) * mu + (fp - fd) * rdx
                    - fp * fd * (rdx + float((h * dx) @ dx)))
            mu *= (max(pred, 0.0) / mu) ** 3 / (2 * J)
            # dx dz / x = -dx zx (1 + dx / x), -ds dw / s = dx ws (dx / s - 1)
            rx += 1.0
            rx *= zx
            rx *= dx  # -dx dz / x
            rs -= 1.0
            rs *= ws
            rs *= dx  # dx dw / s
            rhs = ix - is_
            rhs *= -mu
            rhs += r
            rhs -= rx
            rhs += rs
            dy = Minv @ (AQ @ rhs)
            dx = A.T @ dy
            dx -= rhs
            dx *= q
            dz = mu * ix
            dz -= z
            dz += rx
            zx *= dx
            dz -= zx
            dw = mu * is_
            dw -= w
            dw += rs
            ws *= dx
            dw += ws
            np.multiply(dx, ix, out=rx)
            np.multiply(dx, is_, out=rs)
            fp = _step_length(max(-rx.min(), rs.max()))
            np.divide(dz, z, out=rx)
            np.divide(dw, w, out=rs)
            fd = _step_length(-min(rx.min(), rs.min()))
        else:
            dz = -z - zx * dx
            dw = ws * dx - w
        dx *= fp
        x += dx
        s -= dx
        y += fd * dy
        dz *= fd
        z += dz
        dw *= fd
        w += dw


def fit_qr_curve(data, t_grid):
    """Exact pinball regression of Y on (1, X) at each level of t_grid, one
    QrFit per level, walked in the order given. The first level, and any
    level after one that did not end at a vertex (repeated rows, say), runs
    the interior point from a start shared by all levels; any other runs
    the dual simplex from the previous level's vertex, and the interior
    point if that fails. Both solve y on the same basis alike, so a level's
    coefficients are those of the level fitted alone, bit for bit, wherever
    its optimum is unique. A covariate that is constant or
    collinear with the intercept and the covariates before it gets one
    warning and a zero coefficient at every level. A gap above GAP_TOL
    times the spread after MAX_STEPS interior-point steps raises
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
    # rows contiguous: the interior point's passes run along them
    A = np.vstack([nu, (nu[:, None] * data.X[:, active]).T])
    c, tol, slack = -nu * y, GAP_TOL * scale, START_SLACK * scale * nu
    # the dual start does not depend on t: the least-squares y, whose
    # slacks z, w are shifted up by the slack; each level steps a copy
    y0 = np.linalg.lstsq(A.T, c, rcond=None)[0]
    r = c - A.T @ y0
    z0 = np.maximum(r, 0.0) + slack
    start = (y0, z0, z0 - r)
    fits, vertex = [], None
    for t in t_grid:
        warm = vertex and _dual_simplex(A, c, A @ np.full(c.size, 1.0 - t), tol, *vertex)
        y_dual, steps, gap, vertex = warm or _frisch_newton(
            A, c, t, tol, *(v.copy() for v in start))
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
