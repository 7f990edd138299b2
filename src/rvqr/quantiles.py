"""Conditional quantile queries on a fitted transport coupling.

The quantile at covariate x and rank node u_i is the coupling-weighted
conditional mean of Y over the observations matching x (exactly, or within a
Euclidean ball of radius eta; by default the ball of the ceil(J / 20)
nearest observations). The "hard" variant replaces the weighted mean
by the response carrying the largest weight.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, EmptyBallError, InsufficientMassError
from .measures import value_scale, write_csv

MASS_FLOOR = 1e-14
PAIR_BLOCK = 1 << 18  # node pairs per block of monotonicity_diagnostic
RUN_BLOCK = 1 << 18  # neighbour entries (probes x N x k) per block of _balls
# a probe whose squared reach to the sample's far corner is past this may
# overflow a row's squared distance: its slab is every row, rescaled
SAFE_REACH_SQ = 2.0 ** 1020


class RowSort(NamedTuple):
    """The rows of X in ascending order of their first covariate. The balls
    _balls finds do not depend on the order of ties, so the sort need not
    be stable: at J = 5,000 a stable argsort takes 0.53 ms, this one 0.09."""
    X: np.ndarray      # the rows sorted: a model with other rows sorts its own
    order: np.ndarray  # row indices, ascending in X[:, 0]
    Xs: np.ndarray     # X[order]
    x1: np.ndarray     # Xs[:, 0], contiguous for searchsorted
    lo: np.ndarray     # each covariate's min
    hi: np.ndarray     # and max
    runs: np.ndarray   # view of Xs's runs of k = ceil(J / 20) rows: (J - k + 1) x N x k

    @classmethod
    def of(cls, X):
        J, N = X.shape
        key = X[:, 0] if N else np.zeros(J)
        order = np.argsort(key)
        Xs = X[order]
        x1 = np.ascontiguousarray(Xs[:, 0]) if N else key  # a view at N = 1
        k = _ball_rows(J)
        # sliding_window_view(Xs, k, axis=0), without the 0.1-0.25 MB of peak
        # memory that its first call in a process costs
        runs = np.ndarray((J - k + 1, N, k), Xs.dtype, Xs, 0,
                          (Xs.strides[0], Xs.strides[1], Xs.strides[0]))
        return cls(X, order, Xs, x1, X.min(axis=0), X.max(axis=0), runs)


@dataclass(frozen=True)
class QuantileModel:
    alpha: np.ndarray          # I x J coupling masses
    X: np.ndarray              # J x N centered covariates
    Y: np.ndarray              # J x d responses
    U: np.ndarray              # I x d rank nodes
    epsilon: float
    # sorted once per model: replace(model, alpha=...) carries it over
    by_x1: RowSort = field(default=None, repr=False)

    def __post_init__(self):
        if self.by_x1 is None or self.by_x1.X is not self.X:
            object.__setattr__(self, "by_x1", RowSort.of(self.X))

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


def _ball_rows(J):
    """k = ceil(J / 20), the rows of a default ball among J observations."""
    return -(-J // 20)


def default_eta(dist, k):
    """The default ball radius around a probe, from its distances: the k-th
    smallest, k = ceil(J / 20) for the model's J rows. The ball then holds
    the 5 % of the sample nearest to the probe, and every observation tied
    with the k-th. dist may be a slab of the J rows that holds the k nearest.
    """
    return float(np.partition(dist, k - 1)[k - 1])


def _distances(rows, x, safe):
    """Each row's Euclidean distance to x, by np.linalg.norm's operations
    (so its bits). Unless safe, squares past 1e308, at a probe like 1e200,
    take a power-of-two rescale per row once any of them overflows: one for
    all rows would flush near rows' squares to 0."""
    diff = rows - x
    if safe:
        return np.sqrt(np.add.reduce(diff * diff, axis=1))
    with np.errstate(over="ignore"):
        dist = np.sqrt(np.add.reduce(diff * diff, axis=1))
        if dist.max() == np.inf:
            scale = np.ldexp(1.0, -np.frexp(np.abs(diff).max(axis=1))[1])
            diff = diff * scale[:, None]
            dist = np.sqrt(np.add.reduce(diff * diff, axis=1)) / scale
    return dist


def _balls(model, probes, eta):
    """Each probe's ball, in turn: the indices, in row order, of the rows
    within eta of it, or for eta None within its k-th smallest distance,
    k = ceil(J / 20). EmptyBallError when there are none.

    Only a slab of the model's sorted rows is searched: those whose first
    covariate is within a bound on the radius of the probe's, found by
    searchsorted. The bound is eta itself, or the far corner of the bounding
    box of k sorted neighbours. Every row within the radius lies in the
    slab, so the ball is the one all J rows give, bit for bit, at O(slab)
    per probe. The slab of a probe whose squared distances may overflow is
    every row, their distances rescaled.
    """
    J, N = model.X.shape
    if N == 0:  # every row sits at the one (empty) covariate
        for _ in probes:
            yield np.arange(J)
        return
    s = model.by_x1
    k = _ball_rows(J)
    block = max(1, RUN_BLOCK // (k * N))
    for b in range(0, probes.shape[0], block):
        P = probes[b:b + block]
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.maximum(np.abs(P - s.lo), np.abs(s.hi - P))
            safe = np.add.reduce(reach * reach, axis=1) < SAFE_REACH_SQ  # NaN fails
            if eta is None:
                # the k sorted neighbours' bounding box: its far corner is no
                # nearer than any of them, so no nearer than the k-th distance
                start = np.minimum(np.maximum(np.searchsorted(s.x1, P[:, 0]) - k // 2, 0), J - k)
                run = s.runs[start]
                far = np.maximum(run.max(axis=2) - P, P - run.min(axis=2))
                bound = np.sqrt(np.add.reduce(far * far, axis=1))
            else:
                bound = np.full(P.shape[0], float(eta))
            # past rounding in the distances, and squares that underflow
            bound = bound * (1 + 2.0 ** -40) + 2.0 ** -500
            first = np.searchsorted(s.x1, P[:, 0] - bound)
            last = np.searchsorted(s.x1, P[:, 0] + bound, side="right")
        for x, ok, a, e in zip(P, safe, first, last):
            if not ok:
                a, e = 0, J
            dist = _distances(s.Xs[a:e], x, ok)
            radius = default_eta(dist, k) if eta is None else eta
            idx = np.sort(s.order[a:e][dist <= radius])
            if not idx.size:  # the nearest row may lie outside the slab
                raise EmptyBallError(x, radius, float(_distances(s.Xs, x, ok).min()))
            yield idx


def _readout(model, x, idx, i, hard):
    """The readout at nodes i, or at every node (from one copy) for i None."""
    # ball columns first: one I x |ball| copy, not whole rows. take() keeps
    # it C-contiguous (alpha[:, idx] is not), so a row sums as a plain vector
    W = model.alpha.take(idx, axis=1)
    if i is not None:
        W = W[i]
    mass = W.sum(axis=-1)
    starved = np.flatnonzero(mass < MASS_FLOOR)
    if starved.size:
        k = starved[0]
        node = k if i is None else np.atleast_1d(i)[k]
        raise InsufficientMassError(x, int(node), float(np.atleast_1d(mass)[k]))
    Yb = model.Y[idx]
    if hard:
        return Yb[W.argmax(axis=-1)]
    return W @ Yb / mass[..., None]


def ball_conditional_quantile(model, x, eta, i, hard=False):
    """E[Y | X in B_eta(x), U = u_i]; eta = 0 conditions on X = x exactly and
    eta = None takes default_eta's radius.

    i is one rank-node index (result shape d) or an array of them (one row
    of d components per node): quantile_table at the one probe x.
    """
    Q = quantile_table(model, np.reshape(x, (1, -1)), i, eta, hard)[0]
    return Q[0] if np.ndim(i) == 0 else Q


def quantile_table(model, x_probes, i_set=None, eta=None, hard=False):
    """Quantiles at every (probe, node) pair: a P x |nodes| x d array whose
    [p, k] entry is the readout at probe p and rank node i_set[k].

    Deterministic given a fitted model. Probes are in the model's (centered)
    covariate coordinates; errors are raised at the first offending probe.
    """
    nodes = None if i_set is None else np.asarray(i_set, dtype=int)
    probes = np.atleast_2d(np.asarray(x_probes, dtype=float))
    if eta is not None and not eta >= 0:  # NaN too
        raise ConfigError("eta must be nonnegative")
    if probes.shape[1] != model.X.shape[1]:
        raise ConfigError(f"a probe has {probes.shape[1]} covariates, the model "
                          f"{model.X.shape[1]}")
    Q = np.empty((probes.shape[0], model.n_nodes if nodes is None else nodes.size,
                  model.n_dim))
    for p, idx in enumerate(_balls(model, probes, eta)):
        Q[p] = _readout(model, probes[p], idx, nodes, hard)
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
    Q = quantile_table(model, np.reshape(x_probe, (1, -1)), eta=eta)[0]
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
