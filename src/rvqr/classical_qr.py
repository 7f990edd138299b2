"""Univariate Koenker-Bassett baseline: exact t-by-t quantile regression and
the right-continuous empirical quantile.

`fit_qr_curve` solves, level by level, the rank-score LP, the dual of
pinball regression,

    max_a sum_j nu_j y_j a_j  s.t.  A a = (1 - t) A 1,  0 <= a <= 1,
    A = (nu * [1, X])^T  (p x J, p = 1 + N),

whose coefficients are minus the multipliers of the equality rows, by one
solver: a dual simplex with the bound-flipping ratio test. With the bounds
0 <= a <= 1 any nonsingular basis is dual feasible once each nonbasic a_j
sits at the bound the sign of its reduced cost asks for, so a curve's first
level starts from a pilot basis, the p rows whose least-squares residuals
lie nearest their t-quantile. Levels differ only in the right-hand side, so
one level's optimal basis is a dual-feasible start for the next (the
parametric walk of Koenker & d'Orey, JRSS C 1987): each later level starts
from it, and from its own pilot if that fails. A level ends at a vertex
whose x the certificate accepts, which makes the fit exact to round-off.
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
FEAS_TOL = 1e-10  # round-off allowed in a vertex's bounds and rows
# dual simplex pivots a level may take from either start; 19-level curves
# with ties, repeated rows, heavy tails and N up to 3 took at most 30
MAX_PIVOTS = 100
PIVOT_TOL = 1e-9  # smallest |alpha_j| the ratio test takes as a pivot


@dataclass(frozen=True)
class QrFit:
    """The fit at level t. `iterations` counts the dual simplex pivots of
    the start that gave the fit: the previous level's basis or the pilot."""
    t: float
    alpha: float
    beta: np.ndarray
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


def _dual_simplex(A, c, b, tol, basis, upper):
    """min c.x s.t. A x = b, 0 <= x <= 1 by the dual simplex with the
    bound-flipping ratio test (Kostina, Math. Meth. Oper. Res. 2002), from a
    dual-feasible basis: a pilot, or a basis optimal for another b. `upper`
    holds the nonbasic bounds, x_j = 1 where set; only a flip or a leaving
    variable changes it, never the sign of a reduced cost, which on tied
    data is 0 at many j. y solves A_B'y = c_B with the basis in index
    order, so the same basis gives the same y, bit for bit, from either
    start. Updates (basis, upper) in place.
    Returns (y, pivots, (basis, upper)) once `_certify` accepts x with
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
            return (y, pivots, (basis, upper)) if gap <= tol else None
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
        # breakpoints ratio_j are passed smallest first (ties: larger alpha_j,
        # then lower j) while their alpha_j leave x_r short of its bound. Only
        # the smallest n are sorted, n growing x4 until the pass ends inside
        # them: then the breakpoints passed and the entering one are in order
        n = 64
        while True:
            near = np.argpartition(ratio, n)[:n] if n < cand.size else np.arange(cand.size)
            near = near[np.lexsort((near, -size[near], ratio[near]))]
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


def _pilot(A, c, e, t):
    """A dual-feasible start for level t: the basis of the first p rows, in
    the stable order of |e_j - empirical_quantile(e, t)|, that each raise the
    rank of A_B (a repeated row does not), with x_j = 1 off it where
    a_j.y > c_j for the y of A_B'y = c_B. Returns (basis, upper), basis in
    index order, or None if A_B stays singular."""
    basis = []
    for j in np.argsort(np.abs(e - empirical_quantile(e, t)), kind="stable"):
        if np.linalg.matrix_rank(A[:, basis + [j]]) > len(basis):
            basis.append(j)
            if len(basis) == A.shape[0]:
                break
    basis = np.sort(basis)
    try:
        excess = np.linalg.solve(A[:, basis].T, c[basis]) @ A - c
    except np.linalg.LinAlgError:
        return None
    upper = excess > 0
    upper[basis] = False
    return basis, upper


def fit_qr_curve(data, t_grid):
    """Exact pinball regression of Y on (1, X) at each level of t_grid, one
    QrFit per level, walked in the order given. Each level runs the dual
    simplex: the first from its pilot basis, every later one from the
    previous level's optimal basis, and from its own pilot if that fails.
    A level's y depends only on the basis it ends at, so its coefficients
    are those of the level fitted alone, bit for bit, wherever its optimum
    is unique. A covariate that is constant or collinear with the
    intercept and the covariates before it gets one warning and a zero
    coefficient at every level. A level that ends at no certified vertex
    from either start raises NonConvergenceError, with no coefficients.
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
    # rows contiguous: each pivot's products with A run along them
    A = np.vstack([nu, (nu[:, None] * data.X[:, active]).T])
    c, tol = -nu * y, GAP_TOL * scale
    # the least-squares residuals y_j - yhat_j, which order every pilot
    e = (np.linalg.lstsq(A.T, c, rcond=None)[0] @ A - c) / nu
    fits, vertex = [], None
    for t in t_grid:
        b = A @ np.full(c.size, 1.0 - t)
        level = vertex and _dual_simplex(A, c, b, tol, *vertex)
        if not level:
            pilot = _pilot(A, c, e, t)
            level = pilot and _dual_simplex(A, c, b, tol, *pilot)
        if not level:
            raise NonConvergenceError(
                f"pinball fit at t={t}: no certified vertex within {MAX_PIVOTS} "
                "dual simplex pivots from the previous level's basis or the pilot")
        y_dual, pivots, vertex = level
        coef = -y_dual
        beta = np.zeros(data.n_cov)
        beta[active] = coef[1:]
        fits.append(QrFit(t=float(t), alpha=float(coef[0]), beta=beta,
                          iterations=pivots))
    return fits
