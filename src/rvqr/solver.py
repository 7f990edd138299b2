"""Smoothed transport dual with mean-independence: the psi-dual objective
and gradient, Newton on the (phi, b) semi-dual and coupling extraction.

Conventions: psi has one entry per observation j, b one row per rank node i.
theta_ij = [u_i.y_j - b_i.x_j - psi_j] / epsilon, and the dual objective is

    J(psi, b) = sum_j psi_j nu_j + eps * sum_i mu_i log sum_j exp(theta_ij).

`solve` eliminates psi instead of phi (Cuturi & Peyre, Semi-dual
regularized optimal transport, SIAM Review 2018). With z_i = (phi_i, b_i)
and a_j = (1, x_j) it minimizes over the I (1 + N) numbers z

    F(z) = sum_i mu_i z_i.a_bar + eps * sum_j nu_j log sum_i exp(s_ij),
    s_ij = (u_i.y_j - z_i.a_j) / eps,  a_bar = sum_j nu_j a_j,

whose coupling nu_j softmax_i(s_ij) meets the column marginals exactly, and
returns psi_j = eps log sum_i exp(s_ij) - eps log nu_j, the psi-dual point
of the same coupling. The dual is unchanged by psi -> psi + c and
(psi, b) -> (psi - X c, b + c); the gauge of the returned point is the
solver's own: Newton never moves node 1, so phi_1 = 0 and b_1 = 0 exactly,
and psi is read off the last accepted pass. All log-sum-exp / softmax
reductions are max-stabilized (see kernels).
"""

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, NonConvergenceError, RvqrError
from .measures import RankGrid

# the Armijo constant, and the relative rounding error of an objective
# below which the Armijo test cannot be decided
SUFFICIENT_DECREASE = 1e-4
F_RESOLUTION = 4e-16
MAX_HALVINGS = 60  # rejected trials before a line search gives up
# Marquardt damping 1e-6 min(1, r) D, D an upper bound on the Hessian's
# diagonal; entries of D below 1e-10 max(D), such as a constant covariate's,
# damp with the max
MARQUARDT = 1e-6
DIAG_FLOOR = 1e-10
# inexact Newton: conjugate gradients stop at this relative residual, or
# after CG_MAX_ITER Hessian-vector products
CG_FORCING = 1e-3
CG_MAX_ITER = 200
# epsilon ladder eps 4^k, k = K..0: the top rung is the largest at most
# LADDER_TOP times the spread of u_i.y_j; every rung but the last stops at
# the residual STAGE_TOL
LADDER_RATIO = 4.0
LADDER_TOP = 0.4
STAGE_TOL = 1e-1
X_SCALE_FLOOR = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    tol: float = 1e-9
    max_iter: int = 100  # Newton steps over all epsilon stages

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError(f"epsilon must be a finite number > 0, got {self.epsilon}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite number > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class DualVariables:
    psi: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=float).ravel())
        object.__setattr__(self, "b", np.atleast_2d(np.asarray(self.b, dtype=float)))


@dataclass(frozen=True)
class Coupling:
    alpha: np.ndarray
    row_residual: np.ndarray
    col_residual: np.ndarray
    mi_residual: np.ndarray


@dataclass(frozen=True)
class SolveReport:
    iterations: int  # Newton steps over all stages
    objective: float  # psi-dual J at the returned point
    grad_inf: float  # largest column or mean-independence residual
    duality_gap: float
    wall_time: float
    converged: bool
    stages: int = 0  # epsilon stages
    oracle_calls: int = 0  # semi-dual passes: stages + iterations + backtracks
    backtracks: int = 0  # rejected line-search trials


def theta(dv, data, grid, epsilon):
    """I x J matrix theta_ij = (u_i.y_j - b_i.x_j - psi_j) / epsilon, as one
    product of inner dimension d + N + 1."""
    coef = np.hstack([grid.U, -dv.b, -np.ones((grid.n_nodes, 1))]) / epsilon
    return coef @ np.vstack([data.Y.T, data.X.T, dv.psi[None, :]])


def dual_objective(dv, data, grid, epsilon):
    """J(psi, b), with the row log-sum-exps taken by numpy's logaddexp."""
    if not (np.isfinite(dv.psi).all() and np.isfinite(dv.b).all()):
        raise RvqrError("dual variables contain NaN or Inf")
    lse = np.logaddexp.reduce(theta(dv, data, grid, epsilon), axis=1)
    return float(dv.psi @ data.nu + epsilon * (grid.mu @ lse))


def dual_gradient(dv, data, grid, epsilon):
    """(grad_psi, grad_b): minus the column and mean-independence residuals."""
    c = extract_coupling(dv, data, grid, epsilon)
    return -c.col_residual, -c.mi_residual


def extract_coupling(dv, data, grid, epsilon):
    alpha = kernels.coupling(theta(dv, data, grid, epsilon), grid.mu)
    row_residual = alpha.sum(axis=1) - grid.mu
    col_residual = alpha.sum(axis=0) - data.nu
    mi_residual = alpha @ data.X
    return Coupling(alpha=alpha, row_residual=row_residual,
                    col_residual=col_residual, mi_residual=mi_residual)


def primal_value(coupling, grid, data, epsilon):
    """Regularized primal sum alpha (u.y) - eps sum alpha log alpha, with the
    0 log 0 = 0 convention."""
    a = coupling.alpha
    gain = float(np.sum(a * (grid.U @ data.Y.T)))
    pos = a > 0
    ent = float(np.sum(a[pos] * np.log(a[pos])))
    return gain - epsilon * ent


def dual_value_centered(dv, data, grid, epsilon):
    """Dual objective on the same scale as primal_value.

    The log-sum-exp objective drops the constant -eps * sum_i mu_i log mu_i
    carried by the exact Lagrangian dual; adding it back makes the duality
    gap vanish at the optimum.
    """
    return dual_objective(dv, data, grid, epsilon) - epsilon * float(
        grid.mu @ np.log(grid.mu)
    )


class SemiDual:
    """F(z), its gradient and Hessian-vector products over z = (phi, b), an
    I x K array with K = 1 + N, through one I x J workspace p.

    `evaluate` leaves the column softmax p of its point in the workspace,
    with the I x K x K blocks m_i = sum_j nu_j p_ij a_j a_j' of its second
    moments, and `hvp` reads both from there, so the products are with the
    Hessian of the last point evaluated.
    """

    def __init__(self, data, grid):
        self.data, self.grid = data, grid
        d, I, J = data.n_dim, grid.n_nodes, data.n_obs
        K = 1 + data.n_cov
        # s = [U, -z] @ [Y'; a'] / eps: one product of inner dimension d + K
        self.coef = np.empty((I, d + K))
        self.feats = np.vstack([data.Y.T, np.ones((1, J)), data.X.T])
        self.a = self.feats[d:]  # K x J, column j is a_j = (1, x_j)
        self.a_nu = self.a * data.nu  # nu_j a_j
        # the sum_j nu_j a_j of the mean-independence constraints
        # sum_j alpha_ij a_j = mu_i a_bar, which X's centering leaves at
        # (1, rounding noise)
        self.a_bar = self.a_nu.sum(axis=1)
        # column r K + s is nu_j a_rj a_sj; as a_0 = 1, the columns s = 0
        # give the moments nu_j a_j of the gradient
        self.weights = (self.a_nu[:, None, :] * self.a[None, :, :]).reshape(K * K, J).T
        self.p = np.empty((I, J))
        self.m = None
        self.calls = 0

    def evaluate(self, z, eps):
        """(F, grad, lse) at z, grad an I x K array and lse_j = log sum_i
        exp(s_ij)."""
        d = self.data.n_dim
        np.divide(self.grid.U, eps, out=self.coef[:, :d])
        np.divide(z, -eps, out=self.coef[:, d:])
        np.matmul(self.coef, self.feats, out=self.p)
        lse, moments = kernels.column_softmax(self.p, self.weights)
        self.calls += 1
        self.m = moments.reshape(len(z), len(self.a), len(self.a))
        f = float(self.grid.mu @ (z @ self.a_bar)) + eps * float(self.data.nu @ lse)
        grad = np.outer(self.grid.mu, self.a_bar) - self.m[:, :, 0]
        return f, grad, lse

    def hvp(self, v, eps):
        """H v at the last point evaluated, for an I x K array v:
        (H v)_i = (1/eps) [m_i v_i - sum_j nu_j p_ij c_j a_j] with
        c_j = sum_k p_kj a_j.v_k, two products with p and no I x J
        temporary."""
        c = np.einsum("jk,kj->j", self.p.T @ v, self.a)
        return (np.einsum("irs,is->ir", self.m, v) - self.p @ (self.a_nu * c).T) / eps


def _newton_step(sd, grad, r, eps):
    """Damped Newton direction with node 1 pinned: (H + lam D) d = -grad
    over the other nodes, for lam = MARQUARDT min(1, r) and D = diag(m)/eps
    with its entries below DIAG_FLOOR max(D) raised to the max.

    Conjugate gradients on Hessian-vector products, preconditioned by the
    blocks m_i/eps + lam D_i: the Hessian's diagonal blocks but for their
    part -sum_j nu_j p_ij^2 a_j a_j' / eps, they carry every per-node
    degeneracy (a constant or collinear covariate). They stop once the
    preconditioned residual norm is CG_FORCING times that of -grad, or
    after CG_MAX_ITER products.
    """
    I, K = grad.shape
    blocks = sd.m[1:] / eps
    D = np.einsum("ikk->ik", blocks).copy()
    D[D < DIAG_FLOOR * D.max()] = D.max()
    D *= MARQUARDT * min(1.0, r)
    blocks[:, np.arange(K), np.arange(K)] += D
    inverse = np.linalg.inv(blocks)

    v = np.zeros((I, K))

    def product(x):
        v[1:] = x
        return sd.hvp(v, eps)[1:] + D * x

    def precondition(x):
        return np.einsum("irs,is->ir", inverse, x)

    x = np.zeros((I - 1, K))
    res = -grad[1:]
    y = precondition(res)
    direction = y
    ry = float(np.sum(res * y))
    stop = CG_FORCING ** 2 * ry
    for _ in range(CG_MAX_ITER):
        hd = product(direction)
        alpha = ry / float(np.sum(direction * hd))
        x = x + alpha * direction
        res = res - alpha * hd
        y = precondition(res)
        ry, ry_old = float(np.sum(res * y)), ry
        if ry <= stop:
            break
        direction = y + (ry / ry_old) * direction
    step = np.zeros_like(grad)
    step[1:] = x
    return step


def _ladder(epsilon, spread):
    """epsilon 4^k for k = K, ..., 0, the top rung the largest at most
    LADDER_TOP * spread."""
    top = 0
    while epsilon * LADDER_RATIO ** (top + 1) <= LADDER_TOP * spread:
        top += 1
    return [epsilon * LADDER_RATIO ** k for k in range(top, -1, -1)]


def _stop_weights(data, grid):
    """I x K weights (1, 1/|x_1|max, ..., 1/|x_N|max) / mu_i of the stop
    residual r = max |grad * weights|. |x_k|max is covariate k's largest
    centered magnitude, at least X_SCALE_FLOOR times its largest magnitude
    before centering: a constant covariate centers to rounding noise."""
    x_scale = np.maximum(np.abs(data.X).max(axis=0, initial=0.0), X_SCALE_FLOOR
                         * np.abs(data.X + data.x_mean).max(axis=0, initial=0.0))
    scale = 1.0 / np.concatenate([[1.0], np.where(x_scale > 0, x_scale, 1.0)])
    return scale / grid.mu[:, None]


def solve(data, grid, cfg):
    """Damped Newton on the (phi, b) semi-dual from z = 0, warm-started
    along the epsilon ladder (Schmitzer, arXiv 1610.06519).

    Each stage stops on the scale-free residual
    r = max_i |grad_i * (1, 1/|x_1|max, ..., 1/|x_N|max)|_inf / mu_i, the
    relative row and mean-independence residuals of the semi-dual coupling
    (see _stop_weights): at STAGE_TOL, and the last stage at cfg.tol.
    max_iter bounds the Newton steps of all stages together; a step whose
    direction does not descend, or whose line search rejects MAX_HALVINGS
    trials, ends the solve.

    Returns (DualVariables, Coupling, SolveReport): the psi-dual point of
    the last accepted iterate in the solver's gauge (phi_1 = 0 and b_1 = 0
    exactly, as no step moves node 1; psi_j = eps (lse_j - log nu_j) read
    off the last accepted pass), and its row-exact coupling from one
    extract_coupling pass. Raises NonConvergenceError (carrying that point)
    if the last stage ends above cfg.tol.
    """
    if grid.n_dim != data.n_dim:
        raise ConfigError(
            f"grid dimension {grid.n_dim} does not match response dimension {data.n_dim}"
        )
    if data.n_cov and np.abs(data.nu @ data.X).max() > 1e-8:
        raise ConfigError("covariates must be centered before solving")

    start = time.perf_counter()
    ladder = _ladder(cfg.epsilon, float(np.ptp(grid.U @ data.Y.T)))
    sd = SemiDual(data, grid)
    weight = _stop_weights(data, grid)

    z = np.zeros((grid.n_nodes, 1 + data.n_cov))
    iterations = backtracks = 0
    stalled = False
    for k, eps in enumerate(ladder):
        stage_tol = cfg.tol if k == len(ladder) - 1 else STAGE_TOL
        f, grad, lse = sd.evaluate(z, eps)
        r = float(np.max(np.abs(grad) * weight))
        while r > stage_tol and iterations < cfg.max_iter and not stalled:
            step = _newton_step(sd, grad, r, eps)
            slope = float(np.sum(grad * step))
            if not slope < 0:  # not a descent direction
                stalled = True
                break
            # where the full step's Armijo decrease is below the rounding
            # error of F the test cannot be decided: that step is taken if F
            # stays finite
            at_floor = SUFFICIENT_DECREASE * -slope < F_RESOLUTION * max(1.0, abs(f))
            t = 1.0
            for _ in range(MAX_HALVINGS):
                f_t, grad_t, lse_t = sd.evaluate(z + t * step, eps)
                if f_t - f <= SUFFICIENT_DECREASE * t * slope or (
                        at_floor and t == 1.0 and math.isfinite(f_t)):
                    break
                backtracks += 1
                t *= 0.5
            else:
                stalled = True
                break
            iterations += 1
            z = z + t * step
            f, grad, lse = f_t, grad_t, lse_t
            r = float(np.max(np.abs(grad) * weight))
    wall = time.perf_counter() - start
    converged = r <= cfg.tol
    # the psi-dual J at psi = eps (lse - log nu) equals F - sum_i mu_i
    # b_i.x_bar - eps nu.log nu + eps mu.log(row sums of the semi-dual
    # coupling)
    rows = grid.mu * sd.a_bar[0] - grad[:, 0]
    objective = (f - float(grid.mu @ (z[:, 1:] @ sd.a_bar[1:]))
                 - eps * float(data.nu @ np.log(data.nu))
                 + eps * float(grid.mu @ np.log(rows)))
    oracle_calls = sd.calls
    # free the workspaces before the coupling pass allocates its own
    del sd

    dv = DualVariables(psi=eps * (lse - np.log(data.nu)), b=z[:, 1:])
    coupling = extract_coupling(dv, data, grid, cfg.epsilon)
    # |<z, grad(z)>| of the psi-dual: its gradient blocks are minus the
    # column and mean-independence residuals
    gap = abs(float(dv.psi @ coupling.col_residual)
              + float(np.sum(dv.b * coupling.mi_residual)))
    grad_inf = max(float(np.abs(coupling.col_residual).max()),
                   float(np.abs(coupling.mi_residual).max(initial=0.0)))
    report = SolveReport(
        iterations=iterations, objective=objective, grad_inf=grad_inf,
        duality_gap=gap, wall_time=wall, converged=converged,
        stages=len(ladder), oracle_calls=oracle_calls, backtracks=backtracks,
    )
    if not converged:
        raise NonConvergenceError(
            f"not converged after {iterations} Newton steps: residual "
            f"{r:.3e} (tol {cfg.tol:g}), duality gap {gap:.3e}",
            best=(dv, coupling), report=report,
        )
    return dv, coupling, report


# --- fitted-model persistence -------------------------------------------------

# keys that load_model and the readers of its document rely on
MODEL_KEYS = ("epsilon", "grid", "psi", "b", "x_mean", "x_names", "y_names")


def model_to_json_dict(dv, data, grid, cfg, report):
    return {
        "epsilon": cfg.epsilon,
        "grid": grid.to_json_dict(),
        "psi": dv.psi.tolist(),
        "b": dv.b.tolist(),
        "x_mean": data.x_mean.tolist(),
        "x_names": list(data.x_names),
        "y_names": list(data.y_names),
        "data_meta": dict(data.meta),
        "report": asdict(report),
    }


def save_model(path, dv, data, grid, cfg, report):
    # json.dumps without indent runs json's C encoder; json.dump always runs
    # the pure-Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(model_to_json_dict(dv, data, grid, cfg, report)))


def load_model(path):
    """(doc, DualVariables, RankGrid) from a model file; DataError if it is
    not valid JSON or lacks a key that a reader of the model needs."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        missing = [k for k in MODEL_KEYS if k not in doc]
        if missing:
            raise KeyError(", ".join(missing))
        dv = DualVariables(psi=np.array(doc["psi"]), b=np.array(doc["b"]))
        grid = RankGrid.from_json_dict(doc["grid"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path} is not a valid model file "
                        f"({type(exc).__name__}: {exc})") from None
    return doc, dv, grid
