import math

import numpy as np
import pytest

from rvqr import classical_qr as cq
from rvqr import oracles
from rvqr.errors import ConfigError, NonConvergenceError
from rvqr.measures import Dataset, center_covariates


def _dataset(y, X=None):
    y = np.asarray(y, dtype=float)[:, None]
    J = y.shape[0]
    if X is None:
        X = np.zeros((J, 0))
    return Dataset(X=X, Y=y, nu=np.full(J, 1.0 / J), x_mean=np.zeros(X.shape[1]))


def test_empirical_quantile_hand_cases():
    y = [1.0, 2.0, 3.0, 4.0]
    # generalized inverse inf{a : F(a) > t}
    assert cq.empirical_quantile(y, 0.1) == 1.0
    assert cq.empirical_quantile(y, 0.25) == 2.0  # strict: F(1) = 0.25 not > 0.25
    assert cq.empirical_quantile(y, 0.5) == 3.0
    assert cq.empirical_quantile(y, 0.9) == 4.0
    # t = 1/3 with J = 3: float rounding must not skip the atom
    assert cq.empirical_quantile([1.0, 2.0, 3.0], 1 / 3) == 2.0


@pytest.mark.parametrize("J", [3, 7, 200])
def test_empirical_quantile_levels_array_matches_scalar_calls(rng, J):
    y = np.round(rng.standard_normal(J), 1)  # ties at J = 200
    t = np.array([0.0, *(np.arange(1, J + 1) / J), 0.999, 1.0, 0.5])
    got = cq.empirical_quantile(y, t)
    assert got.shape == t.shape
    scalar = [cq.empirical_quantile(y, float(lv)) for lv in t]
    assert all(type(v) is float for v in scalar)
    np.testing.assert_array_equal(got, scalar)
    # the index rule written out: k = floor(t J + 1e-9) + 1, clipped to [1, J]
    ys = np.sort(y)
    ref = [ys[min(max(math.floor(lv * J + 1e-9) + 1, 1), J) - 1] for lv in t]
    np.testing.assert_array_equal(got, ref)


def test_intercept_only_fit_equals_empirical_quantile(rng):
    # t J = 20, 100, 150: every point between the order statistics k = tJ and
    # k + 1 minimizes the loss, and the empirical quantile is the upper one
    y = rng.standard_normal(200)
    data = _dataset(y)
    ys = np.sort(y)
    tol = 1e-9 * (y.max() - y.min())
    for t in (0.1, 0.5, 0.75):
        fit = cq.fit_qr_curve(data, [t])[0]
        k = round(t * y.size)
        assert ys[k] == cq.empirical_quantile(y, t)
        assert ys[k - 1] - tol <= fit.alpha <= ys[k] + tol


def test_intercept_only_first_order_condition(rng):
    y = rng.standard_normal(500)
    data = _dataset(y)
    for t in (0.2, 0.5, 0.8):
        fit = cq.fit_qr_curve(data, [t])[0]
        frac_above = float(np.mean(y > fit.alpha))
        assert abs(frac_above - (1 - t)) <= 2.0 / y.size


def test_loss_matches_lattice_brute_force(rng):
    # the intercept-only minimizer of the piecewise-linear objective sits at
    # a data point; sweep all of them as an independent oracle
    y = rng.standard_normal(50)
    data = _dataset(y)
    t = 0.25
    fit = cq.fit_qr_curve(data, [t])[0]
    losses = [float(np.mean(np.maximum(y - a, 0.0)) + (1 - t) * a) for a in y]
    assert fit.loss <= min(losses) + 1e-6 * (y.max() - y.min())


def test_location_model_recovers_slope(rng):
    X = rng.standard_normal((400, 1))
    y = 2.0 + 3.0 * X[:, 0] + rng.uniform(0, 1, 400)
    data = center_covariates(Dataset(X=X, Y=y[:, None],
                                     nu=np.full(400, 1 / 400), x_mean=np.zeros(1)))
    fit = cq.fit_qr_curve(data, [0.5])[0]
    assert abs(fit.beta[0] - 3.0) < 0.1
    # centered intercept = quantile at the mean covariate
    assert abs(fit.alpha - 2.5) < 0.15


def test_degenerate_column_pinned_with_warning(rng):
    X = np.zeros((50, 1))
    y = rng.standard_normal(50)
    data = Dataset(X=X, Y=y[:, None], nu=np.full(50, 0.02), x_mean=np.zeros(1))
    with pytest.warns(RuntimeWarning):
        fit = cq.fit_qr_curve(data, [0.5])[0]
    assert fit.beta[0] == 0.0


@pytest.mark.parametrize("columns", ["collinear", "constant_after_shift",
                                     "two_constant", "more_columns_than_rows"])
def test_rank_deficient_columns_pinned_with_warning(rng, columns):
    J = 3 if columns == "more_columns_than_rows" else 200
    x = rng.uniform(0, 1, J)
    X = {"collinear": np.c_[x, 2 * x, x],
         "constant_after_shift": np.c_[np.full(J, 1e3), x, x + 0.5],
         "two_constant": np.c_[np.full(J, 7.3), x, np.full(J, -2.0)],
         "more_columns_than_rows": np.c_[x, x ** 2, np.exp(x)]}[columns]
    kept = {"collinear": [0], "constant_after_shift": [1],
            "two_constant": [1], "more_columns_than_rows": [0, 1]}[columns]
    y = 1.0 + 3.0 * x + rng.uniform(0, 1, J)
    data = center_covariates(Dataset(X=X, Y=y[:, None], nu=np.full(J, 1 / J),
                                     x_mean=np.zeros(3)))
    reduced = center_covariates(Dataset(X=X[:, kept], Y=y[:, None],
                                        nu=np.full(J, 1 / J), x_mean=np.zeros(len(kept))))
    with pytest.warns(RuntimeWarning, match="collinear"):
        fit = cq.fit_qr_curve(data, [0.3])[0]
    ref = cq.fit_qr_curve(reduced, [0.3])[0]
    pinned = np.setdiff1d(np.arange(3), kept)
    assert np.all(fit.beta[pinned] == 0.0)
    np.testing.assert_allclose(fit.beta[kept], ref.beta, rtol=0, atol=1e-12)
    assert fit.alpha == pytest.approx(ref.alpha, abs=1e-12)


@pytest.mark.parametrize("n_cov", [0, 1, 2])
def test_fit_matches_highs_rank_score_lp(rng, n_cov):
    scale_errs = []
    for trial in range(3):
        J = int(rng.integers(30, 400))
        X = rng.standard_normal((J, n_cov))
        y = X @ rng.standard_normal(n_cov) + rng.standard_normal(J)
        if trial == 2:
            y = np.round(y, 1)  # ties
        data = Dataset(X=X + 3.0, Y=y[:, None], nu=np.full(J, 1 / J),
                       x_mean=np.zeros(n_cov))
        if trial:
            data = center_covariates(data)
        scale = y.max() - y.min()
        for t in (0.05, 0.3, 0.5, 0.71, 0.95):
            fit = cq.fit_qr_curve(data, [t])[0]
            coef, value = oracles.koenker_bassett_lp(data, t)
            assert abs(fit.loss - value) <= 1e-12 * scale
            assert fit.iterations <= 30
            if trial < 2 and abs(t * J - round(t * J)) > 1e-6:
                # one minimizer: the coefficients are the LP's
                scale_errs.append(
                    np.abs(np.r_[fit.alpha, fit.beta] - coef).max() / scale)
    assert scale_errs and max(scale_errs) <= 1e-13


def _count_vertex_calls(monkeypatch, reject=False):
    """Wrap _vertex; the returned dict counts its calls and its rejections.
    With reject=True every vertex is rejected: the pure interior point."""
    counts = {"calls": 0, "rejected": 0}
    vertex = cq._vertex

    def counted(*args):
        out = None if reject else vertex(*args)
        counts["calls"] += 1
        counts["rejected"] += out is None
        return out

    monkeypatch.setattr(cq, "_vertex", counted)
    return counts


def test_vertex_finish_ends_the_fit(rng, monkeypatch):
    counts = _count_vertex_calls(monkeypatch)
    X = rng.standard_normal((300, 2))
    data = center_covariates(Dataset(X=X, Y=(X @ [1.0, -2.0] + rng.standard_normal(300))[:, None],
                                     nu=np.full(300, 1 / 300), x_mean=np.zeros(2)))
    # one level per curve: in a curve, levels after a vertex start from it
    fits = [cq.fit_qr_curve(data, [t])[0] for t in (0.1, 0.37, 0.9)]
    # every level ends at an accepted vertex, one try each or a few more
    assert counts["calls"] - counts["rejected"] == 3
    for fit in fits:
        coef, _ = oracles.koenker_bassett_lp(data, fit.t)
        np.testing.assert_allclose(np.r_[fit.alpha, fit.beta], coef, rtol=0,
                                   atol=1e-13 * np.ptp(data.Y))


@pytest.mark.parametrize("n_cov", [0, 1, 2])
def test_pure_interior_point_matches_highs(rng, monkeypatch, n_cov):
    # every vertex rejected: the steps alone reach the gap
    counts = _count_vertex_calls(monkeypatch, reject=True)
    for trial in range(2):
        J = int(rng.integers(30, 400))
        X = rng.standard_normal((J, n_cov))
        y = X @ rng.standard_normal(n_cov) + rng.standard_normal(J)
        if trial:
            y = np.round(y, 1)  # ties
        data = center_covariates(Dataset(X=X + 3.0, Y=y[:, None], nu=np.full(J, 1 / J),
                                         x_mean=np.zeros(n_cov)))
        for t in (0.05, 0.5, 0.95):
            fit = cq.fit_qr_curve(data, [t])[0]
            _, value = oracles.koenker_bassett_lp(data, t)
            assert abs(fit.loss - value) <= 1e-12 * np.ptp(y)
    assert counts["calls"] > 0 and counts["rejected"] == counts["calls"]


def test_singular_basis_falls_back_to_steps(rng, monkeypatch):
    # every row twice: the most fractional x_j come in identical pairs, so
    # the basis is singular and each vertex try is rejected
    counts = _count_vertex_calls(monkeypatch)
    x = rng.uniform(0, 1, 100)
    y = x + rng.standard_normal(100)
    data = center_covariates(Dataset(X=np.r_[x, x][:, None], Y=np.r_[y, y][:, None],
                                     nu=np.full(200, 1 / 200), x_mean=np.zeros(1)))
    fit = cq.fit_qr_curve(data, [0.3])[0]
    assert counts["calls"] > 0 and counts["rejected"] == counts["calls"]
    _, value = oracles.koenker_bassett_lp(data, 0.3)
    assert abs(fit.loss - value) <= 1e-12 * np.ptp(y)


def test_heavy_tailed_response_converges(rng):
    # Cauchy errors: the fit at t = 0.95 takes more than the 50 steps that
    # were once the cap
    X = rng.uniform(0, 1, (5000, 1))
    y = X[:, 0] + rng.standard_cauchy(5000)
    data = center_covariates(Dataset(X=X, Y=y[:, None], nu=np.full(5000, 1 / 5000),
                                     x_mean=np.zeros(1)))
    fit = cq.fit_qr_curve(data, [0.95])[0]
    _, value = oracles.koenker_bassett_lp(data, 0.95)
    assert fit.iterations > 50
    assert abs(fit.loss - value) <= 1e-12 * np.ptp(y)


def test_step_cap_raises_nonconvergence(rng, monkeypatch):
    monkeypatch.setattr(cq, "MAX_STEPS", 2)
    with pytest.raises(NonConvergenceError, match="duality gap"):
        cq.fit_qr_curve(_dataset(rng.standard_normal(100)), [0.3])


def test_rejects_bad_inputs(rng):
    data = _dataset(rng.standard_normal(10))
    with pytest.raises(ConfigError):
        cq.fit_qr_curve(data, [0.0])
    with pytest.raises(ConfigError):
        cq.fit_qr_curve(data, [0.5, 1.0])
    wide = Dataset(X=np.zeros((5, 0)), Y=rng.standard_normal((5, 2)),
                   nu=np.full(5, 0.2), x_mean=np.zeros(0))
    with pytest.raises(ConfigError):
        cq.fit_qr_curve(wide, [0.5])
    with pytest.raises(ConfigError):
        cq.fit_qr_curve(data, [np.nan])


def test_curve_no_crossing_on_location_model(rng):
    X = rng.uniform(0, 1, (300, 1))
    y = X[:, 0] + rng.uniform(0, 1, 300)
    data = center_covariates(Dataset(X=X, Y=y[:, None],
                                     nu=np.full(300, 1 / 300), x_mean=np.zeros(1)))
    fits = cq.fit_qr_curve(data, np.linspace(0.1, 0.9, 9))
    deciles = [cq.empirical_quantile(data.X[:, 0], lv) for lv in np.linspace(0.1, 0.9, 9)]
    q = np.array([[f.alpha + f.beta[0] * x for f in fits] for x in deciles])
    assert np.all(np.diff(q, axis=1) > 0)


def test_curve_tests_rank_once(rng, monkeypatch):
    # x_2 = 2 x_1: one rank test and one warning for the whole curve
    x = rng.uniform(0, 1, 200)
    y = x + rng.uniform(0, 1, 200)
    data = center_covariates(Dataset(X=np.c_[x, 2 * x], Y=y[:, None],
                                     nu=np.full(200, 1 / 200), x_mean=np.zeros(2)))
    calls = []
    rank_test = cq._independent_columns
    monkeypatch.setattr(cq, "_independent_columns",
                        lambda d: calls.append(d) or rank_test(d))
    with pytest.warns(RuntimeWarning, match="collinear") as caught:
        fits = cq.fit_qr_curve(data, np.linspace(0.05, 0.95, 19))
    assert len(fits) == 19 and len(calls) == 1 and len(caught) == 1
    assert all(f.beta[1] == 0.0 for f in fits)


def _normal_instance(rng, J=400):
    x = rng.normal(size=(J, 2))
    y = x @ [1.0, -0.5] + rng.standard_normal(J)
    return center_covariates(Dataset(X=x, Y=y[:, None], nu=np.full(J, 1 / J),
                                     x_mean=np.zeros(2)))


def test_curve_start_shared_by_levels_matches_per_level_start(rng):
    # the curve computes the dual start once and steps a copy of it at each
    # cold level; every level, reached warm or not, has the coefficients of
    # its level fitted alone bit for bit (warm levels count pivots instead
    # of interior-point steps)
    data = _normal_instance(rng)
    levels = np.linspace(0.05, 0.95, 9)
    for fit, t in zip(cq.fit_qr_curve(data, levels), levels):
        (alone,) = cq.fit_qr_curve(data, [t])
        assert (fit.alpha, fit.loss) == (alone.alpha, alone.loss)
        assert fit.beta.tobytes() == alone.beta.tobytes()


LEVELS_19 = np.linspace(0.05, 0.95, 19)


def _record_level_starts(monkeypatch):
    """Wrap the two level solvers; the returned list gets one entry per call:
    ("cold", ended at a vertex, steps) or ("warm", certified, pivots)."""
    events = []
    newton, simplex = cq._frisch_newton, cq._dual_simplex

    def cold(*args):
        out = newton(*args)
        events.append(("cold", out[3] is not None, out[1]))
        return out

    def warm(*args):
        out = simplex(*args)
        events.append(("warm", out is not None, out and out[1]))
        return out

    monkeypatch.setattr(cq, "_frisch_newton", cold)
    monkeypatch.setattr(cq, "_dual_simplex", warm)
    return events


def _check_level_starts(events, fits):
    """A level starts warm exactly when the level before it ended at a
    vertex; a failed warm start falls back to the interior point, and
    `iterations` counts the solver that gave the fit. Returns the number of
    levels fitted warm."""
    events, at_vertex, n_warm = list(events), False, 0
    for fit in fits:
        kind, ended, count = events.pop(0)
        assert kind == ("warm" if at_vertex else "cold")
        if kind == "warm" and not ended:
            kind, ended, count = events.pop(0)
            assert kind == "cold"
        n_warm += kind == "warm"
        at_vertex = ended
        assert fit.iterations == count
    assert not events
    return n_warm


def _hard_input(rng, name):
    if name.startswith("tied"):
        # y to 0.1, X to integers: ties in the data and zero reduced costs
        n_cov = int(name[-1])
        X = np.round(2.0 * rng.standard_normal((400, n_cov)))
        y = np.round(X.sum(axis=1) / 2 + rng.standard_normal(400), 1)
    elif name == "duplicated":
        x = rng.uniform(0, 1, 150)
        y = x + rng.standard_normal(150)
        X, y = np.r_[x, x][:, None], np.r_[y, y]
    elif name == "collinear":
        x = rng.uniform(0, 1, 300)
        X, y = np.c_[x, 2 * x], x + rng.standard_normal(300)
    else:
        X = rng.uniform(0, 1, (5000, 1))
        noise = rng.standard_cauchy(5000) if name == "cauchy" else rng.pareto(0.7, 5000)
        y = X[:, 0] + noise
    J, n_cov = X.shape
    return center_covariates(Dataset(X=X, Y=y[:, None], nu=np.full(J, 1 / J),
                                     x_mean=np.zeros(n_cov)))


@pytest.mark.filterwarnings("ignore:covariate column")
@pytest.mark.parametrize("name", ["tied0", "tied1", "tied2", "duplicated",
                                  "collinear", "cauchy", "pareto"])
def test_warm_curve_matches_highs_on_hard_inputs(rng, monkeypatch, name):
    data = _hard_input(rng, name)
    events = _record_level_starts(monkeypatch)
    fits = cq.fit_qr_curve(data, LEVELS_19)
    n_warm = _check_level_starts(events, fits)
    spread = np.ptp(data.Y)
    for fit in fits:
        _, value = oracles.koenker_bassett_lp(data, fit.t)
        assert abs(fit.loss - value) <= 1e-12 * spread
    if name == "duplicated":
        # identical rows are equally fractional along the central path, so
        # no level ends at a vertex and none starts warm
        assert n_warm == 0 and not any(ended for _, ended, _ in events)
    else:
        # and no warm start stalls at the pivot cap or fails
        assert n_warm > 0
        assert all(ended for kind, ended, _ in events if kind == "warm")


def test_pivot_cap_zero_falls_back_to_the_level_alone(rng, monkeypatch):
    monkeypatch.setattr(cq, "MAX_PIVOTS", 0)
    data = _normal_instance(rng)
    levels = np.linspace(0.05, 0.95, 9)
    events = _record_level_starts(monkeypatch)
    fits = cq.fit_qr_curve(data, levels)
    assert _check_level_starts(events, fits) == 0
    assert [kind for kind, *_ in events].count("warm") == len(levels) - 1
    for fit, t in zip(fits, levels):
        (alone,) = cq.fit_qr_curve(data, [t])
        assert (fit.alpha, fit.loss, fit.iterations) == (alone.alpha, alone.loss,
                                                          alone.iterations)
        assert fit.beta.tobytes() == alone.beta.tobytes()


def test_curve_on_permuted_rows_matches(rng):
    # J = 997: no level puts t J on an integer, so each optimum is unique
    data = _normal_instance(rng, J=997)
    perm = rng.permutation(997)
    shuffled = center_covariates(Dataset(X=data.X[perm] + data.x_mean, Y=data.Y[perm],
                                         nu=data.nu, x_mean=np.zeros(2)))
    tol = 1e-13 * np.ptp(data.Y)
    for fit, other in zip(cq.fit_qr_curve(data, LEVELS_19),
                          cq.fit_qr_curve(shuffled, LEVELS_19)):
        assert abs(fit.alpha - other.alpha) <= tol
        assert np.abs(fit.beta - other.beta).max() <= tol
        assert abs(fit.loss - other.loss) <= tol
