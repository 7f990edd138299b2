import re
from dataclasses import replace

import numpy as np
import pytest

from rvqr import measures, solver
from rvqr import quantiles as qt
from rvqr.classical_qr import empirical_quantile
from rvqr.errors import ConfigError, EmptyBallError, InsufficientMassError
from rvqr.measures import Dataset, center_covariates, make_rank_grid
from rvqr.quantiles import QuantileModel
from rvqr.solver import SolverConfig


def _fit_model(data, n_grid, eps, tol=1e-9):
    grid = make_rank_grid(data.n_dim, n_grid)
    _, coupling, _ = solver.solve(data, grid, SolverConfig(epsilon=eps, tol=tol))
    return QuantileModel.from_fit(coupling, data, grid, eps)


def _no_cov(y):
    y = np.asarray(y, dtype=float)[:, None]
    J = y.shape[0]
    return Dataset(X=np.zeros((J, 1)), Y=y, nu=np.full(J, 1.0 / J),
                   x_mean=np.zeros(1))


def _per_node_readout(model, x, eta, i, hard=False):
    """Reference readout for one node, written out from the definition."""
    dist = np.linalg.norm(model.X - np.asarray(x, dtype=float)[None, :], axis=1)
    idx = np.nonzero(dist <= eta)[0]
    w = model.alpha[i, idx]
    if hard:
        return model.Y[idx[np.argmax(w)]]
    return (w @ model.Y[idx]) / w.sum()


def test_exact_group_and_single_point(rng):
    # two covariate groups; the second holds a single response
    X = np.array([[0.0], [0.0], [1.0]])
    X = X - X.mean(axis=0)
    Y = np.array([[1.0], [2.0], [5.0]])
    data = Dataset(X=X, Y=Y, nu=np.full(3, 1 / 3), x_mean=np.zeros(1))
    model = _fit_model(data, 3, 0.5)
    for i in range(model.n_nodes):
        q = qt.ball_conditional_quantile(model, X[2], 0.0, i)
        assert q[0] == pytest.approx(5.0)


def test_exact_group_unseen_covariate_raises(rng):
    data = _no_cov(rng.standard_normal(10))
    model = _fit_model(data, 3, 0.5)
    with pytest.raises(ConfigError):
        qt.ball_conditional_quantile(model, [7.0], 0.0, 0)


def test_ball_variants(rng):
    X = np.array([[-0.5], [0.5]])
    Y = np.array([[0.0], [1.0]])
    data = Dataset(X=X, Y=Y, nu=np.full(2, 0.5), x_mean=np.zeros(1))
    model = _fit_model(data, 2, 0.5)
    # eta = 0 conditions on X = x exactly: the ball holds the one response
    q0 = qt.ball_conditional_quantile(model, X[0], 0.0, 0)
    assert q0[0] == Y[0, 0]
    # huge eta covers everything: coupling-row conditional mean
    qa = qt.ball_conditional_quantile(model, X[0], 10.0, 0)
    row = model.alpha[0]
    assert qa[0] == pytest.approx(float(row @ Y[:, 0]) / row.sum())
    with pytest.raises(EmptyBallError):
        qt.ball_conditional_quantile(model, [3.0], 0.1, 0)
    # NaN fails every comparison: an eta < 0 test lets it through to an
    # empty ball, whose EmptyBallError names a radius of nan
    for eta in (-1.0, float("nan")):
        for query in (lambda: qt.ball_conditional_quantile(model, X[0], eta, 0),
                      lambda: qt.quantile_table(model, X[:1], eta=eta)):
            with pytest.raises(ConfigError, match="eta must be nonnegative") as info:
                query()
            assert not isinstance(info.value, EmptyBallError)


def test_law_of_total_expectation(rng):
    data = _no_cov(rng.standard_normal(40))
    model = _fit_model(data, 8, 0.3)
    mu = make_rank_grid(1, 8).mu
    total = sum(
        mu[i] * qt.ball_conditional_quantile(model, [0.0], 1.0, i)[0]
        for i in range(model.n_nodes)
    )
    assert total == pytest.approx(float(data.nu @ data.Y[:, 0]), abs=1e-8)


def test_quantiles_stay_in_convex_hull(rng):
    data = _no_cov(rng.standard_normal(30))
    model = _fit_model(data, 6, 0.2)
    lo, hi = data.Y.min(), data.Y.max()
    for i in range(model.n_nodes):
        q = qt.ball_conditional_quantile(model, [0.0], 1.0, i)[0]
        assert lo - 1e-12 <= q <= hi + 1e-12


def test_hard_variant_returns_data_point(rng):
    data = _no_cov(rng.standard_normal(25))
    model = _fit_model(data, 5, 0.1)
    for i in range(model.n_nodes):
        q = qt.ball_conditional_quantile(model, [0.0], 1.0, i, hard=True)[0]
        assert np.min(np.abs(data.Y[:, 0] - q)) == 0.0


def test_no_covariate_small_epsilon_matches_empirical_quantile(rng):
    y = np.sort(rng.standard_normal(60))
    data = _no_cov(y)
    model = _fit_model(data, 6, 0.01, tol=1e-8)
    spacing = np.diff(y).max()
    for i in range(1, model.n_nodes - 1):
        t = model.U[i, 0]
        q = qt.ball_conditional_quantile(model, [0.0], 1.0, i)[0]
        assert abs(q - empirical_quantile(y, t)) <= spacing + 0.05


def test_insufficient_mass(rng):
    data = _no_cov(rng.standard_normal(4))
    model = _fit_model(data, 2, 0.5)
    starved = QuantileModel(alpha=np.zeros_like(model.alpha), X=model.X,
                            Y=model.Y, U=model.U, epsilon=model.epsilon)
    with pytest.raises(InsufficientMassError) as exc:
        qt.ball_conditional_quantile(starved, [0.0], 1.0, 0)
    assert str(exc.value) == ("conditional mass 0.000e+00 at rank index 0 is below the "
                              "floor; widen the ball (a larger --eta) or refit at a larger "
                              "epsilon")
    # a node array reports its first starved node
    alpha = model.alpha.copy()
    alpha[1] = 0.0
    with pytest.raises(InsufficientMassError) as exc:
        qt.ball_conditional_quantile(replace(model, alpha=alpha), [0.0], 1.0,
                                     np.array([0, 1]))
    assert exc.value.rank_index == 1
    # and so does a table over every node
    with pytest.raises(InsufficientMassError) as exc:
        qt.quantile_table(replace(model, alpha=alpha), [[0.0]], eta=1.0)
    assert exc.value.rank_index == 1


def test_node_array_readout_matches_per_node_loop(rng):
    data = center_covariates(Dataset(
        X=rng.standard_normal((40, 2)), Y=rng.standard_normal((40, 2)),
        nu=np.full(40, 1 / 40), x_mean=np.zeros(2)))
    model = _fit_model(data, 3, 0.3)
    x, eta = data.X[0], 1.0
    nodes = np.array([4, 0, 8, 4])
    soft = qt.ball_conditional_quantile(model, x, eta, nodes)
    hard = qt.ball_conditional_quantile(model, x, eta, nodes, hard=True)
    assert soft.shape == hard.shape == (nodes.size, 2)
    # the batched product may sum in another order than the per-node one
    atol = 16 * np.finfo(float).eps * np.abs(data.Y).max()
    for k, i in enumerate(nodes):
        one = qt.ball_conditional_quantile(model, x, eta, int(i))
        np.testing.assert_array_equal(one, _per_node_readout(model, x, eta, i))
        np.testing.assert_allclose(soft[k], one, rtol=0, atol=atol)
        np.testing.assert_array_equal(
            hard[k], _per_node_readout(model, x, eta, i, hard=True))
    table = qt.quantile_table(model, [x], i_set=nodes, eta=eta)
    assert table.shape == (1, nodes.size, 2)
    np.testing.assert_array_equal(table[0], soft)


def test_no_covariate_columns_use_every_row(rng):
    y = rng.standard_normal(12)[:, None]
    data = Dataset(X=np.zeros((12, 0)), Y=y, nu=np.full(12, 1 / 12), x_mean=np.zeros(0))
    model = _fit_model(data, 4, 0.3)
    # every observation sits at the one (empty) covariate
    assert qt.default_eta(np.linalg.norm(model.X, axis=1), 1) == 0.0
    for i in range(model.n_nodes):
        row = model.alpha[i]
        expect = float(row @ y[:, 0]) / row.sum()
        for eta in (0.0, None):
            q = qt.ball_conditional_quantile(model, [], eta, i)
            assert q[0] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("J", [1, 7, 19, 20, 21, 39, 40, 41, 399, 1000, 2003])
def test_default_ball_is_five_percent_distance_quantile(rng, N, J):
    # compare-qr's former radius: the 5% quantile of the covariate distances
    X = rng.standard_normal((J, N))
    alpha = rng.uniform(0.1, 1.0, (3, J))
    model = QuantileModel(alpha=alpha, X=X, Y=rng.standard_normal((J, 1)),
                          U=np.array([[1 / 3], [2 / 3], [1.0]]), epsilon=0.1)
    nodes = np.arange(3)
    for x in (X[J // 2], rng.standard_normal(N)):  # an observed and an unseen probe
        dist = np.linalg.norm(X - x, axis=1)
        ball = dist <= qt.default_eta(dist, -(-J // 20))
        np.testing.assert_array_equal(ball, dist <= np.quantile(dist, 0.05))
        assert ball.sum() >= -(-J // 20)
        np.testing.assert_array_equal(
            qt.ball_conditional_quantile(model, x, None, nodes),
            qt.ball_conditional_quantile(model, x, float(np.quantile(dist, 0.05)), nodes))
        np.testing.assert_array_equal(
            qt.quantile_table(model, [x], nodes)[0],
            qt.ball_conditional_quantile(model, x, None, nodes))


def test_default_ball_at_distances_whose_squares_overflow(rng):
    # covariates 1e160, 2e160, ...: every squared distance to the probe 0
    # overflows, yet the default ball is the ceil(J / 20) = 5 nearest rows,
    # as on the same data divided by 1e160
    J = 100
    alpha = rng.uniform(0.1, 1.0, (3, J))
    Y = rng.standard_normal((J, 1))
    U = np.array([[1 / 3], [2 / 3], [1.0]])
    nodes = np.arange(3)
    X = np.arange(1.0, J + 1.0)[:, None]
    huge = QuantileModel(alpha=alpha, X=X * 1e160, Y=Y, U=U, epsilon=0.1)
    unit = QuantileModel(alpha=alpha, X=X, Y=Y, U=U, epsilon=0.1)
    np.testing.assert_array_equal(
        qt.ball_conditional_quantile(huge, [0.0], None, nodes),
        qt.ball_conditional_quantile(unit, [0.0], None, nodes))
    np.testing.assert_array_equal(
        qt.ball_conditional_quantile(unit, [0.0], None, nodes),
        qt.ball_conditional_quantile(unit, [0.0], 5.0, nodes))


@pytest.mark.parametrize("probe, eta", [([1e200], 1e210), ([1e160, 1e160], 1e170)])
def test_explicit_radius_at_distances_whose_squares_overflow(rng, probe, eta):
    # every squared distance to the probe overflows, yet they are all below
    # eta: the ball holds every row, as at eta = inf. A radius below them
    # all finds none and names the nearest distance, not inf
    J, N = 30, len(probe)
    model = QuantileModel(alpha=rng.uniform(0.1, 1.0, (3, J)), X=rng.standard_normal((J, N)),
                          Y=rng.standard_normal((J, 1)), U=np.array([[1 / 3], [2 / 3], [1.0]]),
                          epsilon=0.1)
    nodes = np.arange(3)
    np.testing.assert_array_equal(
        qt.ball_conditional_quantile(model, probe, eta, nodes),
        qt.ball_conditional_quantile(model, probe, np.inf, nodes))
    with pytest.raises(EmptyBallError) as exc:
        qt.ball_conditional_quantile(model, probe, eta * 1e-12, nodes)
    assert probe[0] <= exc.value.nearest <= 2 * probe[0]


def test_explicit_radius_near_the_probe_when_other_squares_overflow():
    # rows at +-1e200 overflow the squares; the rows near the probe keep
    # their distances 0, 1 and 2, so a radius of 1.5 holds two of them
    X = np.array([[1e200], [-1e200], [0.0], [1.0], [2.0]])
    model = QuantileModel(alpha=np.full((2, 5), 0.1), X=X, Y=np.arange(5.0)[:, None],
                          U=np.array([[0.5], [1.0]]), epsilon=0.1)
    np.testing.assert_array_equal(qt.ball_conditional_quantile(model, [0.0], 1.5, 0), [2.5])
    np.testing.assert_array_equal(qt.ball_conditional_quantile(model, [0.0], 0.0, 0), [2.0])


def test_default_ball_keeps_ties_at_the_kth_distance():
    # J = 40 on the integers: k = 2, and the probe's two neighbours tie at 1
    dist = np.abs(np.arange(40.0) - 10.0)
    assert qt.default_eta(dist, 2) == 1.0
    assert np.flatnonzero(dist <= qt.default_eta(dist, 2)).tolist() == [9, 10, 11]
    # more rows: k = 3 at J = 41, still the same three
    assert qt.default_eta(np.r_[dist, 30.0], 3) == 1.0


def test_quantile_table_shape_and_determinism(rng):
    data = _no_cov(rng.standard_normal(20))
    model = _fit_model(data, 4, 0.2)
    table1 = qt.quantile_table(model, [[0.0]], eta=1.0)
    table2 = qt.quantile_table(model, [[0.0]], eta=1.0)
    assert table1.shape == (1, 4, 1)
    np.testing.assert_array_equal(table1, table2)


def test_table_to_csv(tmp_path, rng):
    data = _no_cov(rng.standard_normal(15))
    model = _fit_model(data, 3, 0.3)
    table = qt.quantile_table(model, [[0.0]], eta=1.0)
    path = str(tmp_path / "q.csv")
    qt.table_to_csv(path, [[0.0]], model.U, table, x_names=["x"])
    out = np.loadtxt(path, delimiter=",", skiprows=1)
    assert out.shape == (3, 3)
    with pytest.raises(ConfigError):
        qt.table_to_csv(str(tmp_path / "e.csv"), np.empty((0, 1)), model.U,
                        np.empty((0, 3, 1)), x_names=["x"])


def _csv_cell_by_cell(x, u, q, x_names):
    """Reference table text: one row per (probe, node), each cell formatted
    on its own."""
    n_d = u.shape[1]
    head = list(x_names) + [f"u_{k + 1}" for k in range(n_d)] + [f"q_{k + 1}" for k in range(n_d)]
    lines = [",".join(head)]
    for p in range(q.shape[0]):
        for k in range(u.shape[0]):
            lines.append(",".join(f"{v:.17g}" for v in (*x[p], *u[k], *q[p, k])))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("hard", [False, True])
def test_table_to_csv_bytes_match_per_cell_format(tmp_path, rng, d, hard):
    data = center_covariates(Dataset(
        X=rng.standard_normal((40, 2)), Y=rng.standard_normal((40, d)),
        nu=np.full(40, 1 / 40), x_mean=np.zeros(2)))
    model = _fit_model(data, 4 if d == 1 else 3, 0.3)
    probes = data.X[:3]
    table = qt.quantile_table(model, probes, eta=1.5, hard=hard)
    x_raw = probes + np.array([0.5, -2.0])
    path = tmp_path / "q.csv"
    qt.table_to_csv(str(path), x_raw, model.U, table, x_names=["a", "b"])
    assert path.read_bytes() == _csv_cell_by_cell(
        x_raw, model.U, table, ["a", "b"]).encode()


def test_table_to_csv_bytes_on_adversarial_values(tmp_path):
    vals = np.array([0.0, -0.0, 5e-324, -2.5e-308, 1e300, -1e-300, 1 / 3, 1e16 + 2])
    x = vals[:4, None]
    u = np.array([[0.5, 1.0], [1.0, 0.5]])
    q = np.resize(vals, (4, 2, 2))
    path = tmp_path / "q.csv"
    qt.table_to_csv(str(path), x, u, q, x_names=["x_1"])
    assert path.read_bytes() == _csv_cell_by_cell(x, u, q, ["x_1"]).encode()


def test_table_to_csv_blocks_match_per_cell_format(tmp_path, rng, monkeypatch):
    # three rows per format call: 2 probes x 5 nodes are written as 3, 3, 3 and 1
    monkeypatch.setattr(measures, "WRITE_ROWS", 3)
    x, u, q = rng.standard_normal((2, 2)), rng.uniform(size=(5, 1)), rng.standard_normal((2, 5, 1))
    path = tmp_path / "q.csv"
    qt.table_to_csv(str(path), x, u, q, x_names=["a", "b"])
    assert path.read_bytes() == _csv_cell_by_cell(x, u, q, ["a", "b"]).encode()


def test_monotonicity_diagnostic_clean_and_planted(rng):
    y = np.sort(rng.standard_normal(40))
    data = _no_cov(y)
    model = _fit_model(data, 8, 0.05)
    assert qt.monotonicity_diagnostic(model, [0.0], eta=1.0) == []
    # a hand-built coupling whose conditional means decrease in u
    bad = QuantileModel(
        alpha=np.array([[0.0, 0.5], [0.5, 0.0]]),
        X=np.zeros((2, 1)), Y=np.array([[0.0], [1.0]]),
        U=np.array([[0.5], [1.0]]), epsilon=0.1)
    violations = qt.monotonicity_diagnostic(bad, [0.0], eta=1.0)
    assert len(violations) == 1
    a, b, drop = violations[0]
    assert (a, b) == (0, 1) and drop == pytest.approx(1.0)


def test_monotonicity_diagnostic_multidim_pairs():
    # 2-D ranks: violation measured via the cyclic inner product
    U = np.array([[0.5, 0.5], [1.0, 1.0]])
    good = QuantileModel(
        alpha=np.array([[0.5, 0.0], [0.0, 0.5]]),
        X=np.zeros((2, 1)), Y=np.array([[0.0, 0.0], [1.0, 1.0]]),
        U=U, epsilon=0.1)
    assert qt.monotonicity_diagnostic(good, [0.0], eta=1.0) == []
    bad = QuantileModel(
        alpha=np.array([[0.0, 0.5], [0.5, 0.0]]),
        X=np.zeros((2, 1)), Y=np.array([[0.0, 0.0], [1.0, 1.0]]),
        U=U, epsilon=0.1)
    assert len(qt.monotonicity_diagnostic(bad, [0.0], eta=1.0)) == 1


def _pairwise_violations(Q, U, tol):
    """Reference: the definition, one node pair at a time."""
    out = []
    for a in range(U.shape[0]):
        for b in range(a + 1, U.shape[0]):
            val = float((Q[a] - Q[b]) @ (U[a] - U[b]))
            if val < -tol:
                out.append((a, b, val))
    return out


@pytest.mark.parametrize("d, n, rows", [(2, 5, None), (2, 5, 7), (3, 4, None), (3, 4, 1)])
def test_monotonicity_diagnostic_matches_pairwise_loop(monkeypatch, rng, d, n, rows):
    U = make_rank_grid(d, n).U
    I = U.shape[0]
    if rows is not None:  # blocks of this many rows, the last one partial
        monkeypatch.setattr(qt, "PAIR_BLOCK", rows * I)
    # one observation per node, so Q = Y: a monotone map with noise, and
    # three planted swaps
    Y = 2.0 * U + 0.1 * rng.standard_normal(U.shape)
    for a, b in ((0, I - 1), (1, I // 2), (3, I - 2)):
        Y[[a, b]] = Y[[b, a]]
    model = QuantileModel(alpha=np.eye(I) / I, X=np.zeros((I, 1)), Y=Y, U=U, epsilon=0.1)
    tol = 1e-3
    ref = _pairwise_violations(Y, U, tol)
    vals = [(Y[a] - Y[b]) @ (U[a] - U[b]) for a in range(I) for b in range(a + 1, I)]
    assert np.abs(np.add(vals, tol)).min() > 1e-6  # no pair near the threshold
    assert {(0, I - 1), (1, I // 2), (3, I - 2)} <= {(a, b) for a, b, _ in ref}
    got = qt.monotonicity_diagnostic(model, [0.0], eta=1.0, tol=tol)
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in ref]
    np.testing.assert_allclose([v for *_, v in got], [v for *_, v in ref],
                               rtol=1e-12, atol=1e-14)


def _reference_ball(X, x, eta):
    """The ball rule over all J rows, as before the rows were sorted: every
    distance by np.linalg.norm, a power-of-two rescale per row when any of
    them is inf, the k-th smallest by np.partition and dist <= eta."""
    diff = X - x[None, :]
    with np.errstate(over="ignore"):
        dist = np.linalg.norm(diff, axis=1)
        if dist.max() == np.inf:
            scale = np.ldexp(1.0, -np.frexp(np.abs(diff).max(axis=1))[1])
            dist = np.linalg.norm(diff * scale[:, None], axis=1) / scale
    if eta is None:
        k = -(-dist.size // 20)
        eta = float(np.partition(dist, k - 1)[k - 1])
    idx = np.nonzero(dist <= eta)[0]
    if idx.size == 0:
        raise EmptyBallError(x, eta, float(dist.min()))
    return idx


def _reference_readout(model, x, eta, i, hard):
    idx = _reference_ball(model.X, np.asarray(x, dtype=float), eta)
    W = model.alpha.take(idx, axis=1)[i]
    Yb = model.Y[idx]
    if hard:
        return Yb[W.argmax(axis=-1)]
    return W @ Yb / W.sum(axis=-1)[..., None]


def _assert_readouts_match_reference(model, probes, eta):
    """quantile_table and ball_conditional_quantile, soft and hard, on all
    nodes and on subsets, equal the reference bit for bit, or raise the
    same EmptyBallError."""
    I = model.n_nodes
    for hard in (False, True):
        for nodes in (None, np.array([I - 1, 0, I - 1]), 1):
            i = np.arange(I) if nodes is None else nodes
            want, first_error = [], None
            for x in probes:
                try:
                    want.append(_reference_readout(model, x, eta, i, hard))
                except EmptyBallError as exc:
                    first_error = first_error or exc
                    with pytest.raises(EmptyBallError) as got:
                        qt.ball_conditional_quantile(model, x, eta, i, hard=hard)
                    assert str(got.value) == str(exc)
                    assert got.value.nearest == exc.nearest
                    continue
                np.testing.assert_array_equal(
                    qt.ball_conditional_quantile(model, x, eta, i, hard=hard), want[-1])
            if first_error is not None:
                with pytest.raises(EmptyBallError, match=re.escape(str(first_error))):
                    qt.quantile_table(model, probes, nodes, eta=eta, hard=hard)
            elif np.ndim(i):
                np.testing.assert_array_equal(
                    qt.quantile_table(model, probes, nodes, eta=eta, hard=hard),
                    np.array(want).reshape(len(probes), -1, model.n_dim))


def _model_on(rng, X, d=2, I=4):
    J = X.shape[0]
    return QuantileModel(alpha=rng.uniform(0.1, 1.0, (I, J)), X=X,
                         Y=rng.standard_normal((J, d)),
                         U=rng.uniform(size=(I, d)), epsilon=0.1)


_SAMPLES = {
    "N0": lambda rng: np.zeros((40, 0)),
    "N1": lambda rng: rng.standard_normal((500, 1)),
    "N2": lambda rng: rng.standard_normal((500, 2)),
    "N3": lambda rng: rng.standard_normal((300, 3)),
    # ties straddle the radius
    "rounded_N1": lambda rng: np.round(rng.standard_normal((400, 1)), 1),
    "rounded_N2": lambda rng: np.round(rng.standard_normal((400, 2)), 1),
    # the slab is every row
    "constant_x1": lambda rng: np.c_[np.full(200, 0.3), rng.standard_normal(200)],
    "duplicated_rows": lambda rng: rng.permutation(
        np.repeat(rng.standard_normal((50, 2)), 4, axis=0)),
    "J_below_20": lambda rng: rng.standard_normal((13, 2)),  # k = 1
    # the squares underflow: every distance reads 0
    "spaced_1e-170": lambda rng: rng.permutation(np.arange(60.0))[:, None] * 1e-170,
}


@pytest.mark.parametrize("eta", [None, 0.0, 0.3])
@pytest.mark.parametrize("sample", list(_SAMPLES))
def test_ball_selection_matches_the_full_sample_rule(rng, sample, eta):
    X = _SAMPLES[sample](rng)
    J, N = X.shape
    probes = np.concatenate([X[[0, J // 2, J - 1]], rng.standard_normal((2, N)),
                             X.max(axis=0, keepdims=True) + 1.0, X.mean(axis=0, keepdims=True)])
    _assert_readouts_match_reference(_model_on(rng, X), probes, eta)


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_ball_selection_in_probe_blocks(rng, monkeypatch, per_block):
    # blocks of per_block probes, the last one partial; k = 25 at J = 500
    monkeypatch.setattr(qt, "RUN_BLOCK", per_block * 25 * 2)
    X = np.round(rng.standard_normal((500, 2)), 1)
    probes = np.concatenate([X[:4], rng.standard_normal((3, 2))])
    _assert_readouts_match_reference(_model_on(rng, X), probes, None)


def test_ball_selection_below_the_nearest_distance_names_it_over_all_rows(rng):
    # the nearest row to 10 is the last in x_1 order but not in x_2's
    X = np.c_[rng.uniform(-1, 1, 200), rng.standard_normal(200)]
    model = _model_on(rng, X)
    probe = np.array([10.0, 0.0])
    nearest = float(np.linalg.norm(X - probe, axis=1).min())
    with pytest.raises(EmptyBallError) as exc:
        qt.quantile_table(model, [probe], eta=0.5 * nearest)
    assert exc.value.nearest == nearest
    assert str(exc.value) == (f"no covariate within radius {0.5 * nearest:g} of probe; "
                              f"nearest distance is {nearest:g}")
    _assert_readouts_match_reference(model, probe[None, :], 0.5 * nearest)


@pytest.mark.parametrize("eta", [None, 1e210])
def test_ball_selection_at_a_probe_whose_squares_overflow(rng, eta):
    model = _model_on(rng, rng.standard_normal((30, 1)))
    _assert_readouts_match_reference(model, np.array([[1e200], [-1e200], [0.0]]), eta)


@pytest.mark.parametrize("eta", [None, 0.0, 5e-170, 1.0])
def test_ball_selection_rescales_when_a_far_row_overflows(rng, eta):
    # the row at 1e200 overflows the squares, so every row's distance is
    # rescaled: the rows near the probe read 1e-170, 2e-170, ..., not 0
    X = np.r_[[[1e200]], rng.permutation(np.arange(1.0, 60.0))[:, None] * 1e-170]
    model = _model_on(rng, X)
    _assert_readouts_match_reference(model, np.array([[0.0], [3e-170]]), eta)
    assert qt.ball_conditional_quantile(model, [0.0], 1.5e-170, 0, hard=True).shape == (2,)


@pytest.mark.parametrize("probe, n", [([0.1], 2), ([0.1, 0.2, 0.3], 2), ([], 1)])
def test_probe_of_the_wrong_length_is_config_error(rng, probe, n):
    model = _model_on(rng, rng.standard_normal((30, n)))
    message = f"a probe has {len(probe)} covariates, the model {n}"
    with pytest.raises(ConfigError, match=message):
        qt.ball_conditional_quantile(model, probe, None, 0)
    with pytest.raises(ConfigError, match=message):
        qt.quantile_table(model, [probe])


def test_model_sorts_its_rows_once(rng):
    model = _model_on(rng, rng.standard_normal((50, 2)))
    assert replace(model, alpha=2 * model.alpha).by_x1 is model.by_x1
    other = replace(model, X=model.X[::-1].copy())
    assert other.by_x1 is not model.by_x1
    np.testing.assert_array_equal(other.by_x1.Xs, other.X[other.by_x1.order])
    np.testing.assert_array_equal(  # k = 3 at J = 50
        other.by_x1.runs, np.lib.stride_tricks.sliding_window_view(other.by_x1.Xs, 3, axis=0))
