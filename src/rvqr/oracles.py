"""Independent verification machinery.

Deliberately shares no softmax/log-sum-exp code with the solver: everything
here goes through scipy.special.logsumexp or explicit summation, so an
agreement between the two routes is evidence, not tautology. The
Koenker-Bassett reference goes through HiGHS (scipy.optimize.linprog), not
the classical_qr interior point.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import classical_qr
from . import solver as rvqr_solver
from .errors import ConfigError, NonConvergenceError
from .solver import SolverConfig


@dataclass(frozen=True)
class SinkhornResult:
    coupling: np.ndarray
    f: np.ndarray
    g: np.ndarray
    iterations: int
    row_residual: float
    col_residual: float


def sinkhorn(mu, nu, G, epsilon, tol=1e-10, max_iter=100000):
    """Entropic OT in the gain convention: maximize sum(pi * G) - eps * sum(pi log pi)
    subject to both marginals, by alternating log-domain scalings.

    epsilon scaling: the potentials are warm-started along the ladder
    epsilon * 2^k, k = K, ..., 1, 0, whose top stage is at least half the
    spread of G, so the final stage starts next to its solution. Every stage
    runs to the residual tol; max_iter bounds the sweeps of all stages
    together.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    G = np.asarray(G, dtype=float)
    if (mu <= 0).any() or (nu <= 0).any():
        raise ConfigError("marginals must be strictly positive")
    if abs(mu.sum() - 1) > 1e-10 or abs(nu.sum() - 1) > 1e-10:
        raise ConfigError("marginals must sum to 1")

    ladder = [epsilon]
    while ladder[0] < 0.5 * float(G.max() - G.min()):
        ladder.insert(0, 2.0 * ladder[0])
    f = np.zeros(mu.size)
    g = np.zeros(nu.size)
    it = 0
    row = col = np.inf
    for eps in ladder:
        while it < max_iter:
            it += 1
            f = eps * logsumexp((G - g[None, :]) / eps, axis=1) - eps * np.log(mu)
            g = eps * logsumexp((G - f[:, None]) / eps, axis=0) - eps * np.log(nu)
            pi = np.exp((G - f[:, None] - g[None, :]) / eps)
            row = float(np.abs(pi.sum(axis=1) - mu).max())
            col = float(np.abs(pi.sum(axis=0) - nu).max())
            if max(row, col) <= tol:
                break
        else:
            raise NonConvergenceError(
                f"Sinkhorn residuals ({row:.3e}, {col:.3e}) above tol after "
                f"{max_iter} iterations"
            )
    return SinkhornResult(pi, f, g, it, row, col)


def check_against_sinkhorn(data, grid, epsilon, tol=1e-10):
    """With centered covariates identically zero, the mean-independence
    constraint is vacuous and the solver must match plain entropic OT on the
    gain u_i.y_j. Returns the max entrywise coupling deviation."""
    if data.n_cov and np.abs(data.X).max() > 1e-12:
        raise ConfigError("this check requires X identically zero after centering")
    cfg = SolverConfig(epsilon=epsilon, tol=tol)
    _, coupling, _ = rvqr_solver.solve(data, grid, cfg)
    G = grid.U @ data.Y.T
    sk = sinkhorn(grid.mu, data.nu, G, epsilon, tol=tol)
    return float(np.abs(coupling.alpha - sk.coupling).max())


def check_gradient_fd(dv, data, grid, epsilon, step=1e-5, n_coords=50, seed=0):
    """Central finite differences of the dual objective against the closed-form
    gradient, on a random subset of coordinates. Returns the max error scaled
    by the gradient's inf-norm."""
    if not 1e-7 <= step <= 1e-3:
        raise ConfigError("step must lie in [1e-7, 1e-3]")
    gpsi, gb = rvqr_solver.dual_gradient(dv, data, grid, epsilon)
    flat = np.concatenate([gpsi, gb.ravel()])
    scale = max(float(np.abs(flat).max()), 1e-12)

    J = dv.psi.size
    n_total = J + dv.b.size
    rng = np.random.default_rng(seed)
    coords = rng.choice(n_total, size=min(n_coords, n_total), replace=False)

    def obj(psi, b):
        return rvqr_solver.dual_objective(
            rvqr_solver.DualVariables(psi=psi, b=b), data, grid, epsilon)

    worst = 0.0
    for c in coords:
        psi_p, b_p = dv.psi.copy(), dv.b.copy()
        psi_m, b_m = dv.psi.copy(), dv.b.copy()
        if c < J:
            psi_p[c] += step
            psi_m[c] -= step
        else:
            i, k = divmod(c - J, dv.b.shape[1])
            b_p[i, k] += step
            b_m[i, k] -= step
        fd = (obj(psi_p, b_p) - obj(psi_m, b_m)) / (2 * step)
        worst = max(worst, abs(fd - flat[c]) / scale)
    return worst


def koenker_bassett_lp(data, t):
    """Koenker-Bassett fit at level t by HiGHS on the rank-score LP
    max sum_j nu_j y_j a_j s.t. sum_j nu_j a_j (1, x_j) = (1 - t) sum_j nu_j
    (1, x_j), 0 <= a <= 1. Returns (coef, value): coef = (alpha, beta) is
    minus the equality rows' multipliers, and value the LP optimum, the
    minimum of E (Y - alpha - beta.X)^+ + (1 - t)(alpha + beta.E X).
    """
    # imported here: scipy.optimize loads scipy.linalg, which no command uses
    from scipy.optimize import linprog

    A = (data.nu[:, None] * np.column_stack([np.ones(data.n_obs), data.X])).T
    res = linprog(-data.nu * data.Y[:, 0], A_eq=A, b_eq=(1.0 - t) * A.sum(axis=1),
                  bounds=(0.0, 1.0), method="highs")
    if res.status != 0:
        raise NonConvergenceError(f"HiGHS: {res.message}")
    return -res.eqlin.marginals, -float(res.fun)


def difference_matrix(T):
    """T x T bidiagonal with 1 on the diagonal and -1 just below it."""
    return np.eye(T) - np.eye(T, k=-1)


def monotone_cov_transform(V):
    """Map a feasible monotone dual matrix V (T x J, columns nonincreasing,
    entries in [0,1]) to the transport plan pi = D^T V / J."""
    V = np.asarray(V, dtype=float)
    if V.min() < -1e-8 or V.max() > 1 + 1e-8:
        raise ConfigError("V entries must lie in [0, 1]")
    T, J = V.shape
    diffs = V[:-1] - V[1:]
    bad = np.argwhere(diffs < -1e-12)
    if bad.size:
        tau, j = bad[0]
        raise ConfigError(
            f"V column {j} increases between rows {tau} and {tau + 1}"
        )
    return difference_matrix(T).T @ V / J


def inverse_cov_transform(pi):
    """Inverse map V = (D^T)^{-1} pi J, i.e. reversed cumulative sums."""
    pi = np.asarray(pi, dtype=float)
    return np.cumsum(pi[::-1], axis=0)[::-1] * pi.shape[1]


def _feasible_plan_samples(data, grid, couplings, seed):
    """Exactly/near-feasible transport plans: the independent coupling plus
    the given converged solver couplings, and convex mixtures of them."""
    plans = [np.outer(grid.mu, data.nu)] + [c.alpha for c in couplings]
    rng = np.random.default_rng(seed)
    mixtures = []
    for _ in range(5):
        w = rng.dirichlet(np.ones(len(plans)))
        mixtures.append(sum(wi * p for wi, p in zip(w, plans)))
    return plans + mixtures


def check_equivalence_small(data, grid, epsilons=(1.0, 0.5, 0.1, 0.05), seed=0):
    """Exercise the change-of-variables bijection between the monotone
    shape-constrained program and the transport form, plus an epsilon-sweep
    consistency check of the regularized value.

    Requires a 1-D endpoint grid. Returns a report dict.
    """
    if grid.n_dim != 1:
        raise ConfigError("equivalence check requires a 1-D grid")
    T, J = grid.n_nodes, data.n_obs
    if T * J > 400:
        raise ConfigError("instance too large for the equivalence check")
    epsilons = sorted(epsilons, reverse=True)
    U = grid.U[:, 0]
    y = data.Y[:, 0]

    cfgs = [SolverConfig(epsilon=eps, tol=1e-10) for eps in epsilons]
    couplings = [rvqr_solver.solve(data, grid, cfg)[1] for cfg in cfgs]
    plans = _feasible_plan_samples(data, grid, couplings, seed)
    obj_mismatch = 0.0
    roundtrip_err = 0.0
    for pi in plans:
        V = inverse_cov_transform(pi)
        pi_back = monotone_cov_transform(V)
        roundtrip_err = max(roundtrip_err, float(np.abs(pi_back - pi).max()))
        lhs = float(np.sum(pi * np.outer(U, y)))
        # with U_tau = tau/T the column-sum form carries a 1/(T J) factor
        rhs = float(np.ones(T) @ V @ y) / (T * J)
        obj_mismatch = max(obj_mismatch, abs(lhs - rhs))

    values = [rvqr_solver.primal_value(c, grid, data, eps)
              for c, eps in zip(couplings, epsilons)]
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    cauchy = all(d2 <= d1 + 1e-9 for d1, d2 in zip(diffs, diffs[1:]))

    report = {
        "objective_mismatch": obj_mismatch,
        "roundtrip_error": roundtrip_err,
        "epsilons": list(epsilons),
        "values": values,
        "value_diffs": diffs,
        "cauchy": cauchy,
    }
    if data.n_cov == 0 or np.abs(data.X).max() <= 1e-12:
        # constant-covariate case: compare against the sorted monotone
        # matching value of unregularized 1-D transport
        if T == J and np.allclose(grid.mu, 1.0 / T) and np.allclose(data.nu, 1.0 / J):
            exact = float(np.sort(U) @ np.sort(y)) / T
            report["exact_value"] = exact
            report["limit_deviation"] = abs(values[-1] - exact)
            report["limit_bound"] = 5 * epsilons[-1] * np.log(T * J)
    return report


def run_all_checks(seed=0):
    """Full oracle suite; returns {name: {passed, measured, tolerance}}."""
    from .measures import Dataset, center_covariates, make_rank_grid, value_scale

    rng = np.random.default_rng(seed)
    results = {}

    def record(name, measured, tolerance):
        results[name] = {
            "passed": bool(measured <= tolerance),
            "measured": float(measured),
            "tolerance": float(tolerance),
        }

    # independent-coupling limit of Sinkhorn
    sk = sinkhorn(np.full(4, 0.25), np.full(6, 1 / 6), np.zeros((4, 6)), 0.7)
    record("sinkhorn_zero_gain_product", float(
        np.abs(sk.coupling - np.outer(np.full(4, 0.25), np.full(6, 1 / 6))).max()), 1e-9)

    # solver vs Sinkhorn on a constant-covariate instance
    J = 10
    y = np.sort(rng.standard_normal(J))[:, None]
    data = Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1 / J), x_mean=np.zeros(1))
    grid = make_rank_grid(1, J)
    record("solver_matches_sinkhorn",
           check_against_sinkhorn(data, grid, 0.1, tol=1e-9), 1e-6)

    # finite-difference gradient agreement
    I, Jr, N, d = 5, 7, 2, 2
    datar = center_covariates(Dataset(
        X=rng.standard_normal((Jr, N)), Y=rng.standard_normal((Jr, d)),
        nu=np.full(Jr, 1 / Jr), x_mean=np.zeros(N)))
    gridr = make_rank_grid(d, 3)
    dv = rvqr_solver.DualVariables(psi=rng.standard_normal(Jr),
                                   b=rng.standard_normal((gridr.n_nodes, N)))
    record("gradient_finite_difference",
           check_gradient_fd(dv, datar, gridr, 0.5, seed=seed), 1e-5)

    # change-of-variables bijection and epsilon sweep
    eq = check_equivalence_small(data, grid, seed=seed)
    record("cov_transform_roundtrip", eq["roundtrip_error"], 1e-12)
    record("cov_transform_objective", eq["objective_mismatch"], 1e-12)
    record("epsilon_sweep_cauchy", 0.0 if eq["cauchy"] else 1.0, 0.5)
    if "limit_deviation" in eq:
        record("unregularized_limit", eq["limit_deviation"], eq["limit_bound"])

    # interior-point pinball regression against the HiGHS rank-score LP;
    # t J is not an integer, so the coefficients are unique
    Xq = rng.standard_normal((203, 2))
    dataq = center_covariates(Dataset(
        X=Xq, Y=Xq @ [[1.0], [-0.5]] + rng.standard_normal((203, 1)),
        nu=np.full(203, 1 / 203), x_mean=np.zeros(2)))
    worst = max(np.abs(np.r_[f.alpha, f.beta] - koenker_bassett_lp(dataq, f.t)[0]).max()
                for f in classical_qr.fit_qr_curve(dataq, (0.1, 0.25, 0.5, 0.9)))
    record("classical_qr_matches_lp", worst / value_scale(dataq.Y[:, 0]), 1e-8)

    return results
