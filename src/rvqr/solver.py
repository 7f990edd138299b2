"""Smoothed transport dual with mean-independence: the psi-dual objective,
its gradient and coupling from one pass, and Newton on the (phi, b) semi-dual.

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
and psi is read off the last accepted pass. As z does not grow with J, a
large cold solve starts from the z solved on every fourth row. All
log-sum-exp / softmax reductions are max-stabilized (see kernels).
"""

import base64
import json
import math
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    DataError,
    InvalidGridError,
    NonConvergenceError,
)
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
# entries per column block of the semi-dual workspace: 2^17 float64 (1 MB)
# fit in a core's L2 cache, so the passes over one block of p after the
# first read it from there, not from memory
BLOCK_ENTRIES = 2 ** 17
LINE = 8  # float64 entries per 64-byte cache line
# a cold solve of at least COARSE_MIN_ENTRIES entries I J starts from a
# solve on every COARSE_STRIDE-th row, where that leaves one row per node.
# Measured at one BLAS thread: a coarse level made solves of 12,000-18,000
# entries slower and solves of 20,000 or more faster
COARSE_STRIDE = 4
COARSE_MIN_ENTRIES = 20_000


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    tol: float = 1e-7
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
    objective: float  # psi-dual J at the dual point the coupling was read off


@dataclass(frozen=True)
class SolveReport:
    iterations: int  # Newton steps over all stages
    objective: float  # psi-dual J at the returned point
    grad_inf: float  # largest column or mean-independence residual
    duality_gap: float
    wall_time: float
    converged: bool
    stages: int = 0  # epsilon stages evaluated
    oracle_calls: int = 0  # semi-dual passes: stages + iterations + backtracks
    backtracks: int = 0  # rejected line-search trials
    cg_products: int = 0  # Hessian-vector products over all Newton directions
    levels: tuple = ()  # rows of each level solved, the coarse ones first


def extract_coupling(dv, data, grid, epsilon):
    """The row-softmax coupling of (psi, b), its residuals and J, in one pass
    over theta_ij = (u_i.y_j - b_i.x_j - psi_j) / epsilon, formed as one
    product of inner dimension d + N + 1. J's gradient blocks are minus the
    column and mean-independence residuals."""
    coef = np.hstack([grid.U, -dv.b, -np.ones((grid.n_nodes, 1))]) / epsilon
    alpha, lse = kernels.coupling(coef @ np.vstack([data.Y.T, data.X.T, dv.psi[None, :]]),
                                  grid.mu)
    return Coupling(alpha=alpha, row_residual=alpha.sum(axis=1) - grid.mu,
                    col_residual=alpha.sum(axis=0) - data.nu, mi_residual=alpha @ data.X,
                    objective=float(dv.psi @ data.nu + epsilon * (grid.mu @ lse)))


def primal_value(coupling, grid, data, epsilon):
    """Regularized primal sum alpha (u.y) - eps sum alpha log alpha, with the
    0 log 0 = 0 convention. At the optimum it equals J - eps sum_i mu_i log
    mu_i, the constant that J's log-sum-exps drop from the exact Lagrangian
    dual."""
    a = coupling.alpha
    gain = float(np.sum(a * (grid.U @ data.Y.T)))
    pos = a > 0
    ent = float(np.sum(a[pos] * np.log(a[pos])))
    return gain - epsilon * ent


class SemiDual:
    """F(z), its gradient and Hessian-vector products over z = (phi, b), an
    I x K array with K = 1 + N, through one I x J workspace p held as
    contiguous column blocks of about BLOCK_ENTRIES entries.

    `evaluate` leaves the column softmax p of its point in the workspace,
    with the I x K x K blocks m_i = sum_j nu_j p_ij a_j a_j' of its second
    moments, and `hvp` reads both from there. Only `evaluate` writes the
    workspace, so the products are with the Hessian of the last point
    evaluated. Each pass runs block by block, so that the passes over one
    block of p find it in cache; the blocks depend only on (I, J), so
    neither do the results depend on the machine.
    """

    def __init__(self, data, grid):
        self.data, self.grid = data, grid
        d, I, J = data.n_dim, grid.n_nodes, data.n_obs
        K = 1 + data.n_cov
        # equal widths, each a whole number of cache lines, so that every
        # block but a short last one starts its rows on a line: GEMM output
        # rows that straddle lines made a pass at I = 400 45 % slower
        width = -(-J // -(-I * J // BLOCK_ENTRIES))
        width = min(J, -(-width // LINE) * LINE)
        self.bounds = [(s, min(s + width, J)) for s in range(0, J, width)]
        # one I x J buffer, from a cache-line boundary, cut into the blocks
        work = np.empty(I * J + LINE)
        work = work[(-work.ctypes.data // 8) % LINE:][:I * J]
        # s = [U, -z] @ [Y'; a'] / eps: one product of inner dimension d + K
        self.coef = np.empty((I, d + K))
        # per block: feats = [Y'; a'], column j of a = feats[d:] is
        # a_j = (1, x_j), a_nu = nu_j a_j, and the J x K K weights whose
        # column r K + s is nu_j a_rj a_sj; as a_0 = 1, the columns s = 0
        # give the moments nu_j a_j of the gradient
        self.feats, self.a_nu, self.weights, self.p = [], [], [], []
        for s, e in self.bounds:
            feats = np.empty((d + K, e - s))
            feats[:d] = data.Y[s:e].T
            feats[d] = 1.0
            feats[d + 1:] = data.X[s:e].T
            a_nu = feats[d:] * data.nu[s:e]
            self.feats.append(feats)
            self.a_nu.append(a_nu)
            self.weights.append((a_nu[:, None, :] * feats[None, d:, :])
                                .reshape(K * K, e - s).T)
            self.p.append(work[I * s:I * e].reshape(I, e - s))
        # the sum_j nu_j a_j of the mean-independence constraints
        # sum_j alpha_ij a_j = mu_i a_bar: (1, rounding noise) on a centered
        # sample, (1, the rows' own mean) on a coarse level
        self.a_bar = np.concatenate([[data.nu.sum()], (data.X.T * data.nu).sum(axis=1)])
        self.m = None
        self.products = 0

    def evaluate(self, z, eps):
        """(F, grad, lse) at z, grad an I x K array and lse_j = log sum_i
        exp(s_ij)."""
        d, (I, K) = self.data.n_dim, z.shape
        np.divide(self.grid.U, eps, out=self.coef[:, :d])
        np.divide(z, -eps, out=self.coef[:, d:])
        lse = np.empty(self.data.n_obs)
        moments = np.zeros((I, K * K))
        for (s, e), feats, weights, p in zip(self.bounds, self.feats, self.weights, self.p):
            np.matmul(self.coef, feats, out=p)
            # the row softmax of p's transpose is the column softmax of p
            lse[s:e] = kernels.coupling(p.T, 1.0)[1]
            moments += p @ weights
        self.m = moments.reshape(I, K, K)
        f = float(self.grid.mu @ (z @ self.a_bar)) + eps * float(self.data.nu @ lse)
        grad = np.outer(self.grid.mu, self.a_bar) - self.m[:, :, 0]
        return f, grad, lse

    def hvp(self, v, eps):
        """H v at the last point evaluated, for an I x K array v:
        (H v)_i = (1/eps) [m_i v_i - sum_j nu_j p_ij c_j a_j] with
        c_j = sum_k p_kj a_j.v_k = (v'p)_0j + sum_{r>=1} (v'p)_rj a_rj, as
        a_0 = 1: two skinny products with each block of p and no I x J
        temporary."""
        d = self.data.n_dim
        cross = np.zeros(v.shape[::-1])
        for feats, a_nu, p in zip(self.feats, self.a_nu, self.p):
            vp = v.T @ p
            vp[1:] *= feats[d + 1:]
            cross += (a_nu * vp.sum(axis=0)) @ p.T
        self.products += 1
        return (np.einsum("irs,is->ir", self.m, v) - cross.T) / eps


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


def _spread(data, grid):
    """max_ij u_i.y_j - min_ij u_i.y_j from the smallest and largest node
    lo_k, hi_k of each grid axis: max_i u_i.y_j = sum_k max(lo_k y_jk,
    hi_k y_jk), and the min likewise. Exact on a tensor-product grid, as
    make_rank_grid builds; on any other grid an upper bound."""
    scores = np.stack([grid.U.min(axis=0), grid.U.max(axis=0)])[:, None, :] * data.Y
    return float(scores.max(axis=0).sum(axis=1).max() - scores.min(axis=0).sum(axis=1).min())


def _ladder(epsilon, eps_z, data, grid):
    """The rungs of a walk to epsilon from a z solved at eps_z: each
    epsilon 4^k, k >= 1, strictly below eps_z and at most LADDER_TOP times
    the spread of u_i.y_j, largest first, then epsilon. The spread is found
    only when epsilon 4 < eps_z."""
    rungs = [epsilon]
    if epsilon * LADDER_RATIO < eps_z:
        spread = _spread(data, grid)
        # one exact product per rung; a rung that overflows to inf ends it
        while (rung := rungs[-1] * LADDER_RATIO) < eps_z and rung <= LADDER_TOP * spread:
            rungs.append(rung)
    return rungs[::-1]


def _stop_weights(data, grid):
    """I x K weights (1, 1/|x_1|max, ..., 1/|x_N|max) / mu_i of the stop
    residual r = max |grad * weights|. |x_k|max is covariate k's largest
    centered magnitude, at least X_SCALE_FLOOR times its largest magnitude
    before centering: a constant covariate centers to rounding noise."""
    x_scale = np.maximum(np.abs(data.X).max(axis=0, initial=0.0), X_SCALE_FLOOR
                         * np.abs(data.X + data.x_mean).max(axis=0, initial=0.0))
    scale = 1.0 / np.concatenate([[1.0], np.where(x_scale > 0, x_scale, 1.0)])
    return scale / grid.mu[:, None]


@dataclass
class _Tally:
    """The counters of one config's solve, summed over its levels."""
    stages: int = 0
    iterations: int = 0
    backtracks: int = 0
    cg_products: int = 0
    levels: tuple = ()  # rows per level, coarse first


def _walk(sd, z, eps_z, cfg, tol, tally):
    """Damped Newton on the semi-dual of `sd` at cfg.epsilon from the start
    (z, eps_z): a z already solved at eps_z to at least STAGE_TOL, or
    eps_z = inf, as for the cold start z = 0. Every walk starts by this one
    rule, the epsilon scaling of Schmitzer (arXiv 1610.06519): it runs down
    the rungs of _ladder(cfg.epsilon, eps_z, sd.data, sd.grid). Each rung
    stops on the scale-free residual
    r = max_i |grad_i * (1, 1/|x_1|max, ..., 1/|x_N|max)|_inf / mu_i, the
    relative row and mean-independence residuals of the semi-dual coupling
    (see _stop_weights), at STAGE_TOL, and the last rung at tol.

    cfg.max_iter bounds tally.iterations, the Newton steps of every level; a
    step whose direction does not descend, or whose line search rejects
    MAX_HALVINGS trials, ends the walk. Either way the rungs between are
    skipped: only the last one is evaluated, once. Adds the walk's counts
    and its level's rows to tally; returns (z, r, lse) at the last accepted
    point of the last rung.
    """
    weight = _stop_weights(sd.data, sd.grid)
    products = sd.products
    stalled = False
    ladder = _ladder(cfg.epsilon, eps_z, sd.data, sd.grid)
    for k, eps in enumerate(ladder):
        last = k == len(ladder) - 1
        if not last and (stalled or tally.iterations >= cfg.max_iter):
            continue  # no step can be taken: on to the last rung
        tally.stages += 1
        stage_tol = tol if last else STAGE_TOL
        f, grad, lse = sd.evaluate(z, eps)
        r = float(np.max(np.abs(grad) * weight))
        while r > stage_tol and tally.iterations < cfg.max_iter and not stalled:
            step = _newton_step(sd, grad, r, eps)
            slope = float(np.sum(grad * step))
            if not slope < 0:  # not a descent direction
                stalled = True
                break
            # where the full step's Armijo decrease is below the rounding
            # error of F the test cannot be decided: that step is taken if
            # F stays finite
            at_floor = SUFFICIENT_DECREASE * -slope < F_RESOLUTION * max(1.0, abs(f))
            t = 1.0
            for _ in range(MAX_HALVINGS):
                f_t, grad_t, lse_t = sd.evaluate(z + t * step, eps)
                if f_t - f <= SUFFICIENT_DECREASE * t * slope or (
                        at_floor and t == 1.0 and math.isfinite(f_t)):
                    break
                tally.backtracks += 1
                t *= 0.5
            else:
                stalled = True
                break
            tally.iterations += 1
            z = z + t * step
            f, grad, lse = f_t, grad_t, lse_t
            r = float(np.max(np.abs(grad) * weight))
    tally.cg_products += sd.products - products
    tally.levels += (sd.data.n_obs,)
    return z, r, lse


def _coarse_start(data, grid, cfg, tally):
    """The start (z, eps_z) of a cold walk on `data` at cfg.epsilon (see
    _walk): (0, inf), or where I J >= COARSE_MIN_ENTRIES and rows 0, 4,
    8, ... keep one per node, the z those rows reach.

    The unknowns z live on the rank grid, so a subsample's optimum lies next
    to the full sample's: the coarse-to-fine scheme of multiscale
    semi-discrete transport (Merigot, Computer Graphics Forum 2011), applied
    to the data measure. The coarse rows, as they are but for renormalized
    weights, are walked from their own coarse start to STAGE_TOL on a
    workspace that lives only in this call, and their z starts the full
    level as it is: recentring them by c would only map z to (phi - b.c, b)
    in each node's block, which a Newton step follows. It comes with
    cfg.epsilon if that walk reached STAGE_TOL, and with inf otherwise: the
    full level then walks its whole ladder from the coarse steps' point.
    """
    I, J = grid.n_nodes, data.n_obs
    if I * J < COARSE_MIN_ENTRIES or J // COARSE_STRIDE < I:
        return np.zeros((I, 1 + data.n_cov)), math.inf
    rows = slice(None, None, COARSE_STRIDE)
    sub = replace(data, X=data.X[rows], Y=data.Y[rows],
                  nu=data.nu[rows] / data.nu[rows].sum())
    z, eps_z = _coarse_start(sub, grid, cfg, tally)
    z, r = _walk(SemiDual(sub, grid), z, eps_z, cfg, STAGE_TOL, tally)[:2]
    return z, cfg.epsilon if r <= STAGE_TOL else math.inf


def solve_chain(data, grid, cfgs):
    """Damped Newton on the (phi, b) semi-dual at each config of `cfgs` in
    turn, all on one SemiDual workspace: a generator of one result per
    config, in the order given.

    Every walk starts from one pair (z, eps_z), as _walk says. The chain
    keeps the pair of the last config that converged, (z, cfg.epsilon), and
    (0, inf) before one has; the first config alone starts instead from
    _coarse_start's pair, whose workspace is freed before the chain's is
    allocated. Given in descending epsilon, the list is one descending
    chain: each config walks only the rungs below the last converged
    epsilon. Each walk stops at STAGE_TOL on every rung but cfg.epsilon's,
    and there at cfg.tol; max_iter bounds the config's Newton steps over its
    levels and stages.

    Yields (DualVariables, Coupling, SolveReport) for a config that
    converges: the psi-dual point of the last accepted iterate in the
    solver's gauge (phi_1 = 0 and b_1 = 0 exactly, as no step moves node 1;
    psi_j = eps (lse_j - log nu_j) read off the last accepted pass), its
    row-exact coupling and J from one extract_coupling pass, and a report
    whose counters are the config's own, summed over its levels. For a
    config that ends above its tol it yields a NonConvergenceError carrying
    that point and report. A psi-dual point that is not finite, as psi
    overflows at a huge epsilon, raises ConfigError. The generator drops each
    result when it resumes, so a caller that drops it too before asking for
    the next keeps one I x J coupling alive at a time.
    """
    if grid.n_dim != data.n_dim:
        raise ConfigError(
            f"grid dimension {grid.n_dim} does not match response dimension {data.n_dim}"
        )
    if data.n_cov and np.abs(data.nu @ data.X).max() > 1e-8:
        raise ConfigError("covariates must be centered before solving")

    start = time.perf_counter()
    warm = np.zeros((grid.n_nodes, 1 + data.n_cov)), math.inf
    for n, cfg in enumerate(cfgs):
        tally = _Tally()
        if n == 0:
            z, eps_z = _coarse_start(data, grid, cfg, tally)
            sd = SemiDual(data, grid)
        else:
            z, eps_z = warm
        z, r, lse = _walk(sd, z, eps_z, cfg, cfg.tol, tally)
        wall = time.perf_counter() - start
        converged = r <= cfg.tol
        if converged:
            warm = z, cfg.epsilon
        if n == len(cfgs) - 1:
            # free the workspace before the last coupling pass allocates its own
            del sd

        with np.errstate(over="ignore"):  # refused just below
            dv = DualVariables(psi=cfg.epsilon * (lse - np.log(data.nu)), b=z[:, 1:])
        if not (np.isfinite(dv.psi).all() and np.isfinite(dv.b).all()):
            why = ("psi = eps (lse - log nu) overflows, as epsilon is too large for this data"
                   if np.isfinite(lse).all() and np.isfinite(dv.b).all() else
                   "b or the log-sum-exps are not finite")
            raise ConfigError(f"the dual point at epsilon {cfg.epsilon:g} is not finite: {why}")
        coupling = extract_coupling(dv, data, grid, cfg.epsilon)
        # |<z, grad(z)>| of the psi-dual: its gradient blocks are minus the
        # column and mean-independence residuals
        gap = abs(float(dv.psi @ coupling.col_residual)
                  + float(np.sum(dv.b * coupling.mi_residual)))
        grad_inf = max(float(np.abs(coupling.col_residual).max()),
                       float(np.abs(coupling.mi_residual).max(initial=0.0)))
        report = SolveReport(**asdict(tally), objective=coupling.objective,
                             oracle_calls=tally.stages + tally.iterations + tally.backtracks,
                             grad_inf=grad_inf, duality_gap=gap, wall_time=wall,
                             converged=converged)
        if converged:
            yield dv, coupling, report
        else:
            yield NonConvergenceError(
                f"not converged after {tally.iterations} Newton steps: residual "
                f"{r:.3e} (tol {cfg.tol:g}), duality gap {gap:.3e}",
                best=(dv, coupling), report=report,
            )
        del dv, coupling  # the next coupling pass runs with this one freed
        start = time.perf_counter()


def solve(data, grid, cfg):
    """solve_chain at one config: a cold solve (see _coarse_start).

    Returns (DualVariables, Coupling, SolveReport); raises the
    NonConvergenceError (carrying the point and report) if the solve ends
    above cfg.tol.
    """
    result = next(solve_chain(data, grid, [cfg]))
    if isinstance(result, NonConvergenceError):
        raise result
    return result


# --- fitted-model persistence -------------------------------------------------

# keys that load_model and the readers of its document rely on
MODEL_KEYS = ("epsilon", "grid", "psi", "b", "x_mean", "x_names", "y_names")


def save_model(path, dv, data, grid, cfg, report):
    doc = {
        "epsilon": cfg.epsilon,
        "grid": grid.to_json_dict(),
        "psi": base64.b64encode(dv.psi.astype("<f8").tobytes()).decode("ascii"),
        "b": dv.b.tolist(),
        "x_mean": data.x_mean.tolist(),
        # a dataset built without names gets the CSV writer's x_k, y_k
        "x_names": list(data.x_names) or [f"x_{k + 1}" for k in range(data.n_cov)],
        "y_names": list(data.y_names) or [f"y_{k + 1}" for k in range(data.n_dim)],
        "data_meta": dict(data.meta),
        "report": asdict(report),
    }
    # json.dumps without indent runs json's C encoder; json.dump always runs
    # the pure-Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def _decode_psi(text):
    """psi from its base64 string of little-endian float64, bit for bit;
    ValueError for anything else, such as the list of an older file."""
    try:
        raw = base64.b64decode(text, validate=True)
        return np.frombuffer(raw, "<f8").astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"psi is not base64 of little-endian float64 ({exc}); "
                         "refit the model") from None


def load_model(path):
    """(doc, DualVariables, RankGrid) from a model file; DataError if it is
    not valid JSON, lacks a key that a reader of the model needs, holds a
    NaN or Inf in psi, b, x_mean or the grid, or its shapes or epsilon do
    not make a fit."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        missing = [k for k in MODEL_KEYS if k not in doc]
        if missing:
            raise KeyError(", ".join(missing))
        dv = DualVariables(psi=_decode_psi(doc["psi"]), b=np.array(doc["b"]))
        grid = RankGrid.from_json_dict(doc["grid"])
        x_mean = np.array(doc["x_mean"], dtype=float)
        for key, value in (("psi", dv.psi), ("b", dv.b), ("x_mean", x_mean)):
            if not np.isfinite(value).all():
                raise ValueError(f"{key} holds a NaN or Inf")
        n_rows, n_cov = dv.b.shape
        n_means, n_names = len(doc["x_mean"]), len(doc["x_names"])
        if n_rows != grid.n_nodes or n_means != n_cov or n_names != n_cov:
            raise ValueError(f"b is {n_rows} x {n_cov} on a {grid.n_nodes}-node grid, "
                             f"with {n_means} covariate means and {n_names} names")
        if len(doc["y_names"]) != grid.n_dim:
            raise ValueError(f"{len(doc['y_names'])} response names for a "
                             f"{grid.n_dim}-dimensional grid")
        eps = doc["epsilon"]
        if not (type(eps) in (int, float) and math.isfinite(eps) and eps > 0):
            raise ValueError(f"epsilon {eps!r} is not a finite number > 0")
    except (ValueError, KeyError, TypeError, InvalidGridError) as exc:
        raise DataError(f"{path} is not a valid model file "
                        f"({type(exc).__name__}: {exc})") from None
    return doc, dv, grid
