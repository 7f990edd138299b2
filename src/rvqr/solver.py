"""Smoothed transport dual with mean-independence: objective, gradients,
gauge fixing, accelerated minimization and coupling extraction.

Conventions: psi has one entry per observation j, b one row per rank node i.
theta_ij = [u_i.y_j - b_i.x_j - psi_j] / epsilon, and the dual objective is

    J(psi, b) = sum_j psi_j nu_j + eps * sum_i mu_i log sum_j exp(theta_ij).

All log-sum-exp / softmax reductions are row-max stabilized (see kernels).
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, NonConvergenceError, RvqrError
from .descent import accelerated_minimize
from .measures import Dataset, RankGrid

# The descent stops only when |<z, grad(z)>|, which equals the duality gap
# at z = [psi, vec b], is at most GAP_FACTOR * tol * max(1, |objective|).
GAP_FACTOR = 10.0


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    tol: float = 1e-9
    max_iter: int = 50000

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be > 0, got {self.tol}")
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
    iterations: int
    objective: float
    grad_inf: float
    duality_gap: float
    wall_time: float
    converged: bool
    n_restarts: int = 0
    oracle_calls: int = 0  # fused value-and-gradient passes computed
    backtracks: int = 0  # rejected backtracking trials

    def to_dict(self):
        return {
            "iterations": self.iterations,
            "objective": self.objective,
            "grad_inf": self.grad_inf,
            "duality_gap": self.duality_gap,
            "wall_time": self.wall_time,
            "converged": self.converged,
            "n_restarts": self.n_restarts,
            "oracle_calls": self.oracle_calls,
            "backtracks": self.backtracks,
        }


def _theta_factors(data, grid, epsilon):
    """(A, B) with theta = A @ B, for A = [U, -b, -1] and B = [Y'; X'; psi'] / eps.

    The b columns of A and the psi row of B are left for the caller to fill.
    theta is then one matrix product of inner dimension d + N + 1 written
    straight into its output, with no I x J temporaries.
    """
    d, N = data.n_dim, data.n_cov
    A = np.empty((grid.n_nodes, d + N + 1))
    A[:, :d] = grid.U
    A[:, -1] = -1.0
    B = np.empty((d + N + 1, data.n_obs))
    np.divide(data.Y.T, epsilon, out=B[:d])
    np.divide(data.X.T, epsilon, out=B[d:d + N])
    return A, B


def theta(dv, data, grid, epsilon):
    """I x J matrix theta_ij = (u_i.y_j - b_i.x_j - psi_j) / epsilon."""
    A, B = _theta_factors(data, grid, epsilon)
    A[:, data.n_dim:-1] = -dv.b
    np.divide(dv.psi, epsilon, out=B[-1])
    return A @ B


class _DualOracle:
    """Objective and gradient of the smoothed dual from one fused kernel pass.

    The I x J workspace and the theta factors are allocated once. The last
    point evaluated is kept by value together with its results, so fun and
    grad requested at the same point cost one pass between them.
    """

    def __init__(self, data, grid, epsilon):
        self.data, self.grid, self.epsilon = data, grid, epsilon
        self.A, self.B = _theta_factors(data, grid, epsilon)
        self.theta = np.empty((grid.n_nodes, data.n_obs))
        self.calls = 0
        self._z = None
        self._fg = None

    def __call__(self, z):
        """(f, g) at the flat point z = [psi, vec(b)]."""
        if self._z is not None and np.array_equal(z, self._z):
            return self._fg
        data, grid, eps = self.data, self.grid, self.epsilon
        J, d, N = data.n_obs, data.n_dim, data.n_cov
        psi = z[:J]
        self.A[:, d:d + N] = -z[J:].reshape(grid.n_nodes, N)
        np.divide(psi, eps, out=self.B[-1])
        np.matmul(self.A, self.B, out=self.theta)
        lse, gpsi, gb = kernels.dual_terms(self.theta, grid.mu, data.nu, data.X)
        f = float(psi @ data.nu + eps * (grid.mu @ lse))
        g = np.concatenate([gpsi, gb.ravel()])
        self.calls += 1
        self._z, self._fg = z.copy(), (f, g)
        return f, g


def _evaluate(dv, data, grid, epsilon):
    return _DualOracle(data, grid, epsilon)(np.concatenate([dv.psi, dv.b.ravel()]))


def dual_objective(dv, data, grid, epsilon):
    if not (np.isfinite(dv.psi).all() and np.isfinite(dv.b).all()):
        raise RvqrError("dual variables contain NaN or Inf")
    return _evaluate(dv, data, grid, epsilon)[0]


def dual_gradient(dv, data, grid, epsilon):
    g = _evaluate(dv, data, grid, epsilon)[1]
    return g[:data.n_obs], g[data.n_obs:].reshape(dv.b.shape)


def normalize(dv, data, grid, epsilon):
    """Pin b_1 = 0 via (b, psi) <- (b - b_1, psi + b_1.x), then shift psi so
    that sum_{ij} exp(theta_ij) = 1. Leaves the objective unchanged."""
    b1 = dv.b[0].copy()
    b = dv.b - b1[None, :]
    psi = dv.psi + (data.X @ b1 if data.n_cov else 0.0)
    lam = epsilon * kernels.logsumexp_all(
        theta(DualVariables(psi=psi, b=b), data, grid, epsilon))
    return DualVariables(psi=psi + lam, b=b)


def extract_coupling(dv, data, grid, epsilon):
    alpha = kernels.coupling(theta(dv, data, grid, epsilon), grid.mu)
    row_residual = alpha.sum(axis=1) - grid.mu
    col_residual = alpha.sum(axis=0) - data.nu
    mi_residual = alpha @ data.X if data.n_cov else np.zeros((grid.n_nodes, 0))
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


def solve(data, grid, cfg):
    """Accelerated gradient descent on the smoothed dual from psi=0, b=0.

    Stops when the gradient inf-norm is at most tol and the relative
    duality gap |<z, grad(z)>| / max(1, |f|) at most GAP_FACTOR * tol.
    Returns (DualVariables, Coupling, SolveReport); the dual variables come
    back gauge-normalized, and the report's duality gap is |<z, grad(z)>|
    at them. Raises NonConvergenceError (carrying the best iterate) if
    max_iter is hit first.
    """
    if grid.n_dim != data.n_dim:
        raise ConfigError(
            f"grid dimension {grid.n_dim} does not match response dimension {data.n_dim}"
        )
    if data.n_cov and np.abs(data.nu @ data.X).max() > 1e-8:
        raise ConfigError("covariates must be centered before solving")

    J, I, N = data.n_obs, grid.n_nodes, data.n_cov
    oracle = _DualOracle(data, grid, cfg.epsilon)
    gap_tol = GAP_FACTOR * cfg.tol

    def gap_small(z, g):
        # g is grad(z), so oracle(z) is the cached pass
        return abs(float(z @ g)) <= gap_tol * max(1.0, abs(oracle(z)[0]))

    start = time.perf_counter()
    res = accelerated_minimize(
        lambda z: oracle(z)[0], lambda z: oracle(z)[1], np.zeros(J + I * N),
        tol=cfg.tol, max_iter=cfg.max_iter, stop=gap_small,
    )
    wall = time.perf_counter() - start
    oracle_calls = oracle.calls
    # free the workspace before the post-solve passes allocate their own
    del oracle

    dv = normalize(DualVariables(psi=res.x[:J], b=res.x[J:].reshape(I, N)),
                   data, grid, cfg.epsilon)
    coupling = extract_coupling(dv, data, grid, cfg.epsilon)
    # |<z, grad(z)>|, the gap the stop test bounds: the gradient blocks are
    # minus the column and mean-independence residuals
    gap = abs(float(dv.psi @ coupling.col_residual)
              + float(np.sum(dv.b * coupling.mi_residual)))
    report = SolveReport(
        iterations=res.iterations, objective=res.fun, grad_inf=res.grad_inf,
        duality_gap=gap, wall_time=wall, converged=res.converged,
        n_restarts=res.n_restarts, oracle_calls=oracle_calls,
        backtracks=res.backtracks,
    )
    if not res.converged:
        raise NonConvergenceError(
            f"not converged after {res.iterations} iterations: gradient "
            f"inf-norm {res.grad_inf:.3e} (tol {cfg.tol:g}), duality gap "
            f"{gap:.3e}",
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
        "report": report.to_dict(),
    }


def save_model(path, dv, data, grid, cfg, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_json_dict(dv, data, grid, cfg, report), fh, indent=1)


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
