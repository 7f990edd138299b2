import math

import numpy as np
import pytest

from rvqr import classical_qr as cq
from rvqr import cli, oracles
from rvqr.errors import ConfigError, NonConvergenceError
from rvqr.measures import Dataset, center_covariates


def _dataset(y, X=None):
    y = np.asarray(y, dtype=float)[:, None]
    J = y.shape[0]
    if X is None:
        X = np.zeros((J, 0))
    return Dataset(X=X, Y=y, nu=np.full(J, 1.0 / J), x_mean=np.zeros(X.shape[1]))


def _pinball(data, fit):
    """The rank-score LP's value at the fit's coefficients, the pinball
    objective E(Y - a - b.X)^+ + (1 - t)(a + b.E X)."""
    resid = data.Y[:, 0] - fit.alpha - data.X @ fit.beta
    return float(data.nu @ np.maximum(resid, 0.0)
                 + (1.0 - fit.t) * (fit.alpha + data.nu @ data.X @ fit.beta))


def test_empirical_quantile_hand_cases():
    y = [1.0, 2.0, 3.0, 4.0]
    # generalized inverse inf{a : F(a) > t}
    assert cq.empirical_quantile(y, 0.1) == 1.0
    assert cq.empirical_quantile(y, 0.25) == 2.0  # strict: F(1) = 0.25 not > 0.25
    assert cq.empirical_quantile(y, 0.5) == 3.0
    assert cq.empirical_quantile(y, 0.9) == 4.0
    # t = 1/3 with J = 3: float rounding must not skip the atom
    assert cq.empirical_quantile([1.0, 2.0, 3.0], 1 / 3) == 2.0


@pytest.mark.parametrize("t", [0.5, [0.1, 0.9]])
def test_empirical_quantile_of_an_empty_sample_is_config_error(t):
    with pytest.raises(ConfigError, match="^empty sample$"):
        cq.empirical_quantile([], t)


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
    assert _pinball(data, fit) <= min(losses) + 1e-6 * (y.max() - y.min())


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
            assert abs(_pinball(data, fit) - value) <= 1e-12 * scale
            assert fit.iterations <= 30
            if trial < 2 and abs(t * J - round(t * J)) > 1e-6:
                # one minimizer: the coefficients are the LP's
                scale_errs.append(
                    np.abs(np.r_[fit.alpha, fit.beta] - coef).max() / scale)
    assert scale_errs and max(scale_errs) <= 1e-13


def test_highs_is_exact_on_an_intercept_only_level():
    # N = 0, t J not an integer: the pinball loss has one minimizer, the
    # order statistic next to t J; at HiGHS's default tolerances this level
    # came out 8e-9 of the spread off in value and 3e-5 in alpha
    y = np.random.default_rng(7).standard_normal(2453)
    t, spread = 0.5013, np.ptp(y)
    losses = [float(np.mean(np.maximum(y - a, 0.0)) + (1.0 - t) * a) for a in y]
    k = int(np.argmin(losses))
    coef, value = oracles.koenker_bassett_lp(_dataset(y), t)
    assert abs(value - losses[k]) <= 1e-12 * spread
    assert coef.shape == (1,) and abs(coef[0] - y[k]) <= 1e-12 * spread


def test_pilot_skips_rank_dropping_repeated_rows(rng, monkeypatch):
    # every row twice: the two copies of a row have the same residual, so
    # they are neighbours in the pilot's order and the second one does not
    # raise the rank of A_B; the pilot skips it and still starts the fit
    bases = []
    pilot = cq._pilot

    def recorded(*args):
        out = pilot(*args)
        bases.append(out[0].copy())
        return out

    monkeypatch.setattr(cq, "_pilot", recorded)
    x = rng.uniform(0, 1, 100)
    y = x + rng.standard_normal(100)
    data = center_covariates(Dataset(X=np.r_[x, x][:, None], Y=np.r_[y, y][:, None],
                                     nu=np.full(200, 1 / 200), x_mean=np.zeros(1)))
    fit = cq.fit_qr_curve(data, [0.3])[0]
    A = np.vstack([data.nu, data.nu * data.X[:, 0]])
    c = -data.nu * data.Y[:, 0]
    e = (np.linalg.lstsq(A.T, c, rcond=None)[0] @ A - c) / data.nu
    order = np.argsort(np.abs(e - cq.empirical_quantile(e, 0.3)), kind="stable")
    assert np.linalg.matrix_rank(A[:, order[:2]]) == 1
    (basis,) = bases
    assert order[0] in basis and np.linalg.matrix_rank(A[:, basis]) == 2
    _, value = oracles.koenker_bassett_lp(data, 0.3)
    assert abs(_pinball(data, fit) - value) <= 1e-12 * np.ptp(y)


def test_heavy_tailed_response_converges(rng):
    # Cauchy errors at t = 0.95: the level started from its pilot ends at
    # the optimum within the pivot cap
    X = rng.uniform(0, 1, (5000, 1))
    y = X[:, 0] + rng.standard_cauchy(5000)
    data = center_covariates(Dataset(X=X, Y=y[:, None], nu=np.full(5000, 1 / 5000),
                                     x_mean=np.zeros(1)))
    fit = cq.fit_qr_curve(data, [0.95])[0]
    _, value = oracles.koenker_bassett_lp(data, 0.95)
    assert 0 < fit.iterations <= cq.MAX_PIVOTS
    assert abs(_pinball(data, fit) - value) <= 1e-12 * np.ptp(y)


def test_step_cap_raises_nonconvergence(rng, monkeypatch):
    # the pilot is not optimal on this input, so no pivot allowed means no
    # certified vertex; the error carries no coefficients
    data = _normal_instance(rng)
    assert cq.fit_qr_curve(data, [0.3])[0].iterations > 0
    monkeypatch.setattr(cq, "MAX_PIVOTS", 0)
    with pytest.raises(NonConvergenceError, match="0 dual simplex pivots") as err:
        cq.fit_qr_curve(data, [0.3])
    assert err.value.best is None


def _singular(*args, **kwargs):
    raise np.linalg.LinAlgError("Singular matrix")


def _compare_qr_without_a_certified_vertex(tmp_path, capsys):
    """compare-qr on a 300-row synth file exits 2 with one error line for
    the first level, t = 0.4 (the 5-node grid's first interior node), and
    writes no table."""
    data, out = str(tmp_path / "d.csv"), tmp_path / "cmp.csv"
    assert cli.main(["synth", "--out", data, "--n-samples", "300", "--seed", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["compare-qr", "--data", data, "--x-cols", "x_1", "--y-cols", "y_1",
                     "--grid", "5", "--out", str(out)]) == cli.EXIT_NONCONV
    assert capsys.readouterr().err == (
        "error: pinball fit at t=0.4: no certified vertex within 100 dual simplex "
        "pivots from the previous level's basis or the pilot\n")
    assert not out.exists()


def test_singular_basis_falls_back_to_the_pilot(rng, monkeypatch):
    # the second level's walk from the first level's basis finds it
    # singular at its first solve: the level starts again from its pilot
    # and ends at the unpatched curve's coefficients
    data = _normal_instance(rng)
    want = cq.fit_qr_curve(data, [0.3, 0.6])
    calls, simplex = [], cq._dual_simplex

    def singular_second_call(*args):
        with pytest.MonkeyPatch.context() as mp:
            if len(calls) == 1:
                mp.setattr(np.linalg, "solve", _singular)
            calls.append(simplex(*args))
        return calls[-1]

    monkeypatch.setattr(cq, "_dual_simplex", singular_second_call)
    got = cq.fit_qr_curve(data, [0.3, 0.6])
    assert [out is None for out in calls] == [False, True, False]
    for g, w in zip(got, want):
        assert (g.alpha, g.beta.tobytes()) == (w.alpha, w.beta.tobytes())


def test_empty_ratio_test_ends_in_nonconvergence(rng, tmp_path, capsys, monkeypatch):
    # no |alpha_j| passes an infinite pivot tolerance, so the first pivot's
    # ratio test has no candidate, from the pilot as from any basis
    data = _normal_instance(rng)
    assert cq.fit_qr_curve(data, [0.3])[0].iterations > 0
    monkeypatch.setattr(cq, "PIVOT_TOL", np.inf)
    with pytest.raises(NonConvergenceError, match=(
            r"^pinball fit at t=0.3: no certified vertex within 100 dual simplex pivots "
            r"from the previous level's basis or the pilot$")) as err:
        cq.fit_qr_curve(data, [0.3])
    assert err.value.best is None
    _compare_qr_without_a_certified_vertex(tmp_path, capsys)


def test_singular_pilot_ends_in_nonconvergence(rng, tmp_path, capsys, monkeypatch):
    # a pilot basis np.linalg.solve finds singular gives no start at all
    data = _normal_instance(rng)
    monkeypatch.setattr(np.linalg, "solve", _singular)
    with pytest.raises(NonConvergenceError, match=(
            r"^pinball fit at t=0.3: no certified vertex within 100 dual simplex pivots "
            r"from the previous level's basis or the pilot$")):
        cq.fit_qr_curve(data, [0.3])
    _compare_qr_without_a_certified_vertex(tmp_path, capsys)


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
    # the curve computes the least-squares residuals that order every pilot
    # once; every level, reached from the previous level's basis or not, has
    # the coefficients of its level fitted alone bit for bit (only the pivot
    # counts differ)
    data = _normal_instance(rng)
    levels = np.linspace(0.05, 0.95, 9)
    for fit, t in zip(cq.fit_qr_curve(data, levels), levels):
        (alone,) = cq.fit_qr_curve(data, [t])
        assert (fit.alpha, fit.beta.tobytes()) == (alone.alpha, alone.beta.tobytes())


LEVELS_19 = np.linspace(0.05, 0.95, 19)


def _record_level_starts(monkeypatch, warm_cap=None):
    """Wrap the pilot and the dual simplex; the returned list gets one entry
    per dual simplex call: ("pilot" or "warm", certified, pivots), "pilot"
    when a `_pilot` call came just before it. With warm_cap set, warm calls
    run under MAX_PIVOTS = warm_cap."""
    events, fresh = [], []
    pilot, simplex = cq._pilot, cq._dual_simplex

    def recorded_pilot(*args):
        fresh.append(True)
        return pilot(*args)

    def recorded_simplex(*args):
        kind = "pilot" if fresh else "warm"
        fresh.clear()
        with pytest.MonkeyPatch.context() as mp:
            if kind == "warm" and warm_cap is not None:
                mp.setattr(cq, "MAX_PIVOTS", warm_cap)
            out = simplex(*args)
        events.append((kind, out is not None, out and out[1]))
        return out

    monkeypatch.setattr(cq, "_pilot", recorded_pilot)
    monkeypatch.setattr(cq, "_dual_simplex", recorded_simplex)
    return events


def _check_level_starts(events, fits):
    """The first level starts from its pilot, every later one from the
    previous level's basis, and from its own pilot if that fails;
    `iterations` counts the pivots of the start that gave the fit. Returns
    the number of levels fitted warm."""
    events, n_warm = list(events), 0
    for n, fit in enumerate(fits):
        kind, ended, count = events.pop(0)
        assert kind == ("warm" if n else "pilot")
        if not ended:
            kind, ended, count = events.pop(0)
            assert kind == "pilot"
        assert ended
        n_warm += kind == "warm"
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
    # every level after the first starts from the previous level's basis,
    # repeated rows included, and every level ends at a certified vertex,
    # one that interpolates 1 + N rows
    assert _check_level_starts(events, fits) == len(LEVELS_19) - 1
    assert all(ended for _, ended, _ in events)
    spread = np.ptp(data.Y)
    p = 1 + len(cq._independent_columns(data))
    for fit in fits:
        _, value = oracles.koenker_bassett_lp(data, fit.t)
        assert abs(_pinball(data, fit) - value) <= 1e-12 * spread
        resid = data.Y[:, 0] - fit.alpha - data.X @ fit.beta
        assert np.count_nonzero(np.abs(resid) <= 1e-13 * spread) >= p


def test_ratio_test_sorts_a_prefix_growing_x4(rng, monkeypatch):
    # Pareto(0.7) errors at t = 0.5: the pilot's first ratio test sorts the
    # smallest 64, 256 and 1024 breakpoints, then every candidate
    data = _hard_input(rng, "pareto")
    sizes = {"argpartition": [], "lexsort": []}
    argpartition, lexsort = np.argpartition, np.lexsort
    monkeypatch.setattr(np, "argpartition", lambda a, kth: sizes["argpartition"].append(
        len(a)) or argpartition(a, kth))
    monkeypatch.setattr(np, "lexsort", lambda keys: sizes["lexsort"].append(
        len(keys[0])) or lexsort(keys))
    monkeypatch.setattr(cq, "MAX_PIVOTS", 1)  # one ratio test, then no vertex
    with pytest.raises(NonConvergenceError):
        cq.fit_qr_curve(data, [0.5])
    n_cand = sizes["argpartition"][0]
    assert sizes["lexsort"] == [64, 256, 1024, n_cand]


def test_fit_does_not_depend_on_how_ties_are_partitioned(rng, monkeypatch):
    # y rounded to 0.1 and the file's rows written twice, each copy J rows
    # from the other: many breakpoints tie in (ratio, alpha), and which copy
    # enters changes the basis's column order and so y's rounding. The ratio
    # test must order ties by column, not by np.argpartition's internal order,
    # which is replaced here by a full sort with ties in a random order
    J = 1000
    X = rng.uniform(0.0, 1.0, (J, 2))
    y = np.round(1.0 + X.sum(axis=1) + rng.standard_normal(J), 1)
    data = center_covariates(Dataset(X=np.tile(X, (2, 1)), Y=np.tile(y, 2)[:, None],
                                     nu=np.full(2 * J, 1 / (2 * J)), x_mean=np.zeros(2)))

    def curve():
        return [(f.alpha, f.beta.tobytes(), f.iterations)
                for f in cq.fit_qr_curve(data, LEVELS_19)]

    expected = curve()
    for seed in range(3):
        shuffle = np.random.default_rng(seed)

        def argpartition(a, kth):
            perm = shuffle.permutation(len(a))
            return perm[np.argsort(a[perm], kind="stable")]

        with monkeypatch.context() as patch:
            patch.setattr(np, "argpartition", argpartition)
            assert curve() == expected


def test_pivot_cap_zero_falls_back_to_the_level_alone(rng, monkeypatch):
    # warm starts capped at zero pivots fail (the previous level's basis is
    # not optimal for the next); each level then runs from its own pilot and
    # equals the level fitted alone, bit for bit, pivot count included
    data = _normal_instance(rng)
    levels = np.linspace(0.05, 0.95, 9)
    events = _record_level_starts(monkeypatch, warm_cap=0)
    fits = cq.fit_qr_curve(data, levels)
    assert _check_level_starts(events, fits) == 0
    warm = [ended for kind, ended, _ in events if kind == "warm"]
    assert len(warm) == len(levels) - 1 and not any(warm)
    for fit, t in zip(fits, levels):
        (alone,) = cq.fit_qr_curve(data, [t])
        assert ((fit.alpha, fit.beta.tobytes(), fit.iterations)
                == (alone.alpha, alone.beta.tobytes(), alone.iterations))


@pytest.mark.parametrize("order", ["ascending", "descending"])
@pytest.mark.parametrize("ties", [False, True])
def test_intercept_only_curve_is_exact_against_order_statistics(rng, order, ties):
    # N = 0: the pinball loss is minimized at an order statistic next to
    # t J, so brute force over them is exact where HiGHS, at its default
    # tolerances, can be 1e-9 of the spread off; this checks the first
    # level, started from its pilot, as tightly as every later one
    J = 2453  # t J is never an integer on LEVELS_19: one minimizer a level
    y = rng.standard_normal(J)
    if ties:
        y = np.round(y, 1)
    data = _dataset(y)
    ys, spread = np.sort(y), np.ptp(y)
    levels = LEVELS_19 if order == "ascending" else LEVELS_19[::-1]
    for fit in cq.fit_qr_curve(data, levels):
        k = math.floor(fit.t * J)
        best = min(float(data.nu @ np.maximum(y - a, 0.0) + (1.0 - fit.t) * a)
                   for a in ys[k - 2:k + 3])
        assert abs(_pinball(data, fit) - best) <= 1e-13 * spread


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
        assert abs(_pinball(data, fit) - _pinball(shuffled, other)) <= tol
