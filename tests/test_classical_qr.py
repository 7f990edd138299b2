import numpy as np
import pytest

from rvqr import classical_qr as cq
from rvqr.errors import ConfigError
from rvqr.measures import Dataset, center_covariates


def _dataset(y, X=None):
    y = np.asarray(y, dtype=float)[:, None]
    J = y.shape[0]
    if X is None:
        X = np.zeros((J, 0))
    return Dataset(X=X, Y=y, nu=np.full(J, 1.0 / J), x_mean=np.zeros(X.shape[1]))


def test_pinball_values():
    assert cq.pinball(-2.0, 0.3) == pytest.approx(0.3 * 2.0)
    assert cq.pinball(4.0, 0.3) == pytest.approx(0.7 * 4.0)
    assert cq.pinball(0.0, 0.9) == 0.0
    np.testing.assert_allclose(cq.pinball(np.array([-1.0, 1.0]), 0.5), [0.5, 0.5])


def test_smoothed_pinball_matches_outside_kink():
    t, h = 0.3, 0.01
    z = np.array([-1.0, 1.0])
    exact = cq.pinball(z, t)
    smooth = cq._pinball_smoothed(z, t, h)
    # Moreau envelope differs from the kinked loss by at most h/2 far from 0
    assert np.abs(smooth - exact).max() <= 0.5 * h


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
    y = rng.standard_normal(200)
    data = _dataset(y)
    for t in (0.1, 0.5, 0.75):
        fit = cq.fit_qr_t(data, t)
        h = cq.QrConfig().smoothing * (y.max() - y.min())
        assert abs(fit.alpha - cq.empirical_quantile(y, t)) <= max(
            h, 1.5 * np.diff(np.sort(y)).max())


def test_intercept_only_first_order_condition(rng):
    y = rng.standard_normal(500)
    data = _dataset(y)
    for t in (0.2, 0.5, 0.8):
        fit = cq.fit_qr_t(data, t)
        frac_above = float(np.mean(y > fit.alpha))
        assert abs(frac_above - (1 - t)) <= 2.0 / y.size


def test_loss_matches_lattice_brute_force(rng):
    # the intercept-only minimizer of the piecewise-linear objective sits at
    # a data point; sweep all of them as an independent oracle
    y = rng.standard_normal(50)
    data = _dataset(y)
    t = 0.25
    fit = cq.fit_qr_t(data, t)
    losses = [float(np.mean(np.maximum(y - a, 0.0)) + (1 - t) * a) for a in y]
    assert fit.loss <= min(losses) + 1e-6 * (y.max() - y.min())


def test_location_model_recovers_slope(rng):
    X = rng.standard_normal((400, 1))
    y = 2.0 + 3.0 * X[:, 0] + rng.uniform(0, 1, 400)
    data = center_covariates(Dataset(X=X, Y=y[:, None],
                                     nu=np.full(400, 1 / 400), x_mean=np.zeros(1)))
    fit = cq.fit_qr_t(data, 0.5)
    assert abs(fit.beta[0] - 3.0) < 0.1
    # centered intercept = quantile at the mean covariate
    assert abs(fit.alpha - 2.5) < 0.15


def test_degenerate_column_pinned_with_warning(rng):
    X = np.zeros((50, 1))
    y = rng.standard_normal(50)
    data = Dataset(X=X, Y=y[:, None], nu=np.full(50, 0.02), x_mean=np.zeros(1))
    with pytest.warns(RuntimeWarning):
        fit = cq.fit_qr_t(data, 0.5)
    assert fit.beta[0] == 0.0


def test_rejects_bad_inputs(rng):
    data = _dataset(rng.standard_normal(10))
    with pytest.raises(ConfigError):
        cq.fit_qr_t(data, 0.0)
    with pytest.raises(ConfigError):
        cq.fit_qr_t(data, 1.0)
    wide = Dataset(X=np.zeros((5, 0)), Y=rng.standard_normal((5, 2)),
                   nu=np.full(5, 0.2), x_mean=np.zeros(0))
    with pytest.raises(ConfigError):
        cq.fit_qr_t(wide, 0.5)
    with pytest.raises(ConfigError):
        cq.QrConfig(tol=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError):
            cq.QrConfig(tol=bad)
        with pytest.raises(ConfigError):
            cq.QrConfig(smoothing=bad)


def test_curve_no_crossing_on_location_model(rng):
    X = rng.uniform(0, 1, (300, 1))
    y = X[:, 0] + rng.uniform(0, 1, 300)
    data = center_covariates(Dataset(X=X, Y=y[:, None],
                                     nu=np.full(300, 1 / 300), x_mean=np.zeros(1)))
    curve = cq.fit_qr_curve(data, np.linspace(0.1, 0.9, 9))
    assert curve.crossing_report == []
    t_mid = [f.alpha for f in curve.fits]
    assert np.all(np.diff(t_mid) > 0)


def test_curve_rejects_unsorted_grid(rng):
    data = _dataset(rng.standard_normal(10))
    with pytest.raises(ConfigError):
        cq.fit_qr_curve(data, [0.5, 0.25])
