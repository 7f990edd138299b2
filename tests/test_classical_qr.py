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
    assert scale_errs and max(scale_errs) <= 1e-8


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
