"""Conditional quantile queries on a fitted transport coupling.

The quantile at covariate x and rank node u_i is the coupling-weighted
conditional mean of Y over the observations matching x (exactly, or within a
Euclidean ball of radius eta; by default the ball of the ceil(J / 20)
nearest observations). The "hard" variant replaces the weighted mean
by the response carrying the largest weight.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyBallError, InsufficientMassError
from .measures import value_scale, write_csv

MASS_FLOOR = 1e-14
PAIR_BLOCK = 1 << 18  # node pairs per block of monotonicity_diagnostic


@dataclass(frozen=True)
class QuantileModel:
    alpha: np.ndarray          # I x J coupling masses
    X: np.ndarray              # J x N centered covariates
    Y: np.ndarray              # J x d responses
    U: np.ndarray              # I x d rank nodes
    epsilon: float

    @classmethod
    def from_fit(cls, coupling, data, grid, epsilon):
        return cls(alpha=coupling.alpha, X=data.X, Y=data.Y, U=grid.U,
                   epsilon=float(epsilon))

    @property
    def n_nodes(self):
        return self.U.shape[0]

    @property
    def n_dim(self):
        return self.Y.shape[1]


def default_eta(dist):
    """The default ball radius around a probe, from its distance to every
    observation: the k-th smallest distance, k = ceil(J / 20). The ball then
    holds the 5 % of the sample nearest to the probe, and every observation
    tied with the k-th.
    """
    k = -(-dist.size // 20)
    return float(np.partition(dist, k - 1)[k - 1])


def ball_conditional_quantile(model, x, eta, i, hard=False):
    """E[Y | X in B_eta(x), U = u_i]; eta = 0 conditions on X = x exactly and
    eta = None takes default_eta's radius.

    i is one rank-node index (result shape d) or an array of them (one row
    of d components per node). The ball is formed once for all of them.
    """
    if eta is not None and not eta >= 0:  # NaN too
        raise ConfigError("eta must be nonnegative")
    x = np.asarray(x, dtype=float).ravel()
    diff = model.X - x[None, :]
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(diff, axis=1)
        if dist.max() == np.inf:  # squares past 1e308, at a probe like 1e200
            # a power of two per row: one for all flushes near rows' squares to 0
            scale = np.ldexp(1.0, -np.frexp(np.abs(diff).max(axis=1))[1])
            dist = np.linalg.norm(diff * scale[:, None], axis=1) / scale
    if eta is None:
        eta = default_eta(dist)
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
    """Quantiles at every (probe, node) pair: a P x |nodes| x d array whose
    [p, k] entry is the readout at probe p and rank node i_set[k].

    Deterministic given a fitted model. Probes are in the model's (centered)
    covariate coordinates; errors are raised at the first offending probe.
    """
    nodes = np.arange(model.n_nodes) if i_set is None else np.asarray(i_set, dtype=int)
    probes = np.atleast_2d(np.asarray(x_probes, dtype=float))
    Q = np.empty((probes.shape[0], nodes.size, model.n_dim))
    for p, x in enumerate(probes):
        Q[p] = ball_conditional_quantile(model, x, eta, nodes, hard=hard)
    return Q


def table_to_csv(path, x, u, q, x_names):
    """Write the table of q (P x |nodes| x d, from quantile_table) with
    measures.write_csv: one row per (probe, node), with the probe's x (P x N),
    the node's u (|nodes| x d) and its quantile, under the header x_names,
    u_k, q_k."""
    x, u, q = (np.asarray(a, dtype=float) for a in (x, u, q))
    if q.size == 0:
        raise ConfigError("empty quantile table")
    P, n_nodes, n_d = q.shape
    head = list(x_names) + [f"u_{k + 1}" for k in range(n_d)] + [f"q_{k + 1}" for k in range(n_d)]
    write_csv(path, head, np.hstack([np.repeat(x, n_nodes, axis=0), np.tile(u, (P, 1)),
                                     q.reshape(P * n_nodes, n_d)]))


def monotonicity_diagnostic(model, x_probe, eta=None, tol=None):
    """List rank-node pairs where the fitted quantile map fails monotonicity.

    d = 1: adjacent nodes (sorted by u) where Q decreases by more than tol.
    d >= 2: node pairs with (Q(u1) - Q(u2)) . (u1 - u2) < -tol.
    """
    if tol is None:
        tol = 1e-6 * value_scale(model.Y)
    Q = ball_conditional_quantile(model, x_probe, eta, np.arange(model.n_nodes))
    if model.n_dim == 1:
        order = np.argsort(model.U[:, 0])
        drop = Q[order[:-1], 0] - Q[order[1:], 0]
        return [(int(order[k]), int(order[k + 1]), float(drop[k]))
                for k in np.flatnonzero(drop > tol)]
    # (Q_a - Q_b).(u_a - u_b) = qu_a + qu_b - (Q U')_ab - (Q U')_ba over
    # pairs b > a, a block of rows a at a time: O(I * block) memory
    U = model.U
    I = model.n_nodes
    qu = np.einsum("ik,ik->i", Q, U)
    block = max(1, PAIR_BLOCK // I)
    violations = []
    for s in range(0, I, block):
        e = min(s + block, I)
        val = (qu[s:e, None] + qu[None, s:]
               - Q[s:e] @ U[s:].T - U[s:e] @ Q[s:].T)
        upper = np.arange(s, I)[None, :] > np.arange(s, e)[:, None]
        for a, b in zip(*np.nonzero(upper & (val < -tol))):
            violations.append((int(s + a), int(s + b), float(val[a, b])))
    return violations
