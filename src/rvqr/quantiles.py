"""Conditional quantile queries on a fitted transport coupling.

The quantile at covariate x and rank node u_i is the coupling-weighted
conditional mean of Y over the observations matching x (exactly, or within a
Euclidean ball of radius eta). The "hard" variant replaces the weighted mean
by the response carrying the largest weight.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyBallError, InsufficientMassError
from .measures import value_scale

MASS_FLOOR = 1e-14
PAIR_BLOCK = 1 << 18  # node pairs per block of monotonicity_diagnostic


@dataclass(frozen=True)
class QuantileModel:
    alpha: np.ndarray          # I x J coupling masses
    X: np.ndarray              # J x N centered covariates
    Y: np.ndarray              # J x d responses
    U: np.ndarray              # I x d rank nodes
    mu: np.ndarray
    nu: np.ndarray
    epsilon: float

    @classmethod
    def from_fit(cls, coupling, data, grid, epsilon):
        return cls(alpha=coupling.alpha, X=data.X, Y=data.Y, U=grid.U,
                   mu=grid.mu, nu=data.nu, epsilon=float(epsilon))

    @property
    def n_nodes(self):
        return self.U.shape[0]

    @property
    def n_dim(self):
        return self.Y.shape[1]


def default_eta(model):
    """Half the median nearest-neighbor distance between distinct covariates."""
    # imported here: scipy.spatial adds ~50 ms to every `import rvqr`
    from scipy.spatial import cKDTree

    Xd = np.unique(model.X, axis=0)
    if Xd.shape[0] < 2:
        return 0.0
    nearest = cKDTree(Xd).query(Xd, k=2)[0][:, 1]
    return 0.5 * float(np.median(nearest))


def ball_conditional_quantile(model, x, eta, i, hard=False):
    """E[Y | X in B_eta(x), U = u_i]; eta = 0 conditions on X = x exactly.

    i is one rank-node index (result shape d) or an array of them (one row
    of d components per node). The ball is formed once for all of them.
    """
    if eta < 0:
        raise ConfigError("eta must be nonnegative")
    x = np.asarray(x, dtype=float).ravel()
    dist = np.linalg.norm(model.X - x[None, :], axis=1)
    idx = np.nonzero(dist <= eta)[0]
    if idx.size == 0:
        raise EmptyBallError(x, eta, float(dist.min()))
    # ball columns first: one I x |ball| copy, not whole rows. take() keeps
    # it C-contiguous (alpha[:, idx] is not), so a row sums as a plain vector
    W = model.alpha.take(idx, axis=1)[i]
    mass = W.sum(axis=-1)
    starved = np.flatnonzero(mass < MASS_FLOOR)
    if starved.size:
        k = starved[0]
        raise InsufficientMassError(x, int(np.atleast_1d(i)[k]),
                                    float(np.atleast_1d(mass)[k]))
    Yb = model.Y[idx]
    if hard:
        return Yb[W.argmax(axis=-1)]
    return W @ Yb / mass[..., None]


def quantile_table(model, x_probes, i_set=None, eta=None, hard=False):
    """Rows (x-probe components, u_i components, quantile components).

    Deterministic given a fitted model. Probes are in the model's (centered)
    covariate coordinates.
    """
    nodes = np.arange(model.n_nodes) if i_set is None else np.asarray(i_set, dtype=int)
    if eta is None:
        eta = default_eta(model)
    rows = []
    for x in np.atleast_2d(np.asarray(x_probes, dtype=float)):
        Q = ball_conditional_quantile(model, x, eta, nodes, hard=hard)
        rows += [(tuple(x), tuple(model.U[i]), tuple(q)) for i, q in zip(nodes, Q)]
    return rows


def table_to_csv(path, rows, x_names=None):
    if not rows:
        raise ConfigError("empty quantile table")
    n_x = len(rows[0][0])
    n_d = len(rows[0][2])
    xh = list(x_names) if x_names else [f"x_{k + 1}" for k in range(n_x)]
    head = xh + [f"u_{k + 1}" for k in range(n_d)] + [f"q_{k + 1}" for k in range(n_d)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(head) + "\n")
        for x, u, q in rows:
            cells = [f"{v:.17g}" for v in (*x, *u, *q)]
            fh.write(",".join(cells) + "\n")


def monotonicity_diagnostic(model, x_probe, eta=None, tol=None):
    """List rank-node pairs where the fitted quantile map fails monotonicity.

    d = 1: adjacent nodes (sorted by u) where Q decreases by more than tol.
    d >= 2: node pairs with (Q(u1) - Q(u2)) . (u1 - u2) < -tol.
    """
    if eta is None:
        eta = default_eta(model)
    if tol is None:
        tol = 1e-6 * value_scale(model.Y)
    Q = ball_conditional_quantile(model, x_probe, eta, np.arange(model.n_nodes))
    violations = []
    if model.n_dim == 1:
        order = np.argsort(model.U[:, 0])
        for a, b in zip(order[:-1], order[1:]):
            drop = float(Q[a, 0] - Q[b, 0])
            if drop > tol:
                violations.append((int(a), int(b), drop))
    else:
        # (Q_a - Q_b).(u_a - u_b) = qu_a + qu_b - (Q U')_ab - (Q U')_ba over
        # pairs b > a, a block of rows a at a time: O(I * block) memory
        U = model.U
        I = model.n_nodes
        qu = np.einsum("ik,ik->i", Q, U)
        block = max(1, PAIR_BLOCK // I)
        for s in range(0, I, block):
            e = min(s + block, I)
            val = (qu[s:e, None] + qu[None, s:]
                   - Q[s:e] @ U[s:].T - U[s:e] @ Q[s:].T)
            upper = np.arange(s, I)[None, :] > np.arange(s, e)[:, None]
            for a, b in zip(*np.nonzero(upper & (val < -tol))):
                violations.append((int(s + a), int(s + b), float(val[a, b])))
    return violations
