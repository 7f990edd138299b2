"""The stabilized kernels against direct, unstabilized formulas on moderate
scores, and against closed forms on scores whose exponentials overflow."""

import numpy as np

from rvqr import kernels


def _instance(rng, I=7, J=23, N=3):
    theta = rng.standard_normal((I, J)) * 5
    mu = rng.dirichlet(np.ones(I))
    nu = rng.dirichlet(np.ones(J))
    X = rng.standard_normal((J, N))
    return theta, mu, nu, X


def _direct_coupling(theta, mu):
    ex = np.exp(theta)
    return mu[:, None] * ex / ex.sum(axis=1, keepdims=True)


def test_column_softmax_matches_direct_formula(rng):
    theta, _, nu, X = _instance(rng)
    for N in (3, 0):
        weights = nu[:, None] * np.hstack([np.ones((X.shape[0], 1)), X[:, :N]])
        work = theta.copy()
        lse, moments = kernels.column_softmax(work, weights)
        ex = np.exp(theta)
        p = ex / ex.sum(axis=0)
        np.testing.assert_allclose(lse, np.log(ex.sum(axis=0)), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(work, p, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(moments, p @ weights, rtol=1e-13, atol=1e-15)
        assert moments.shape == (theta.shape[0], 1 + N)


def test_coupling_matches_direct_formula(rng):
    theta, mu, _, _ = _instance(rng)
    a, lse = kernels.coupling(theta.copy(), mu)
    np.testing.assert_allclose(a, _direct_coupling(theta, mu), rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(a.sum(axis=1), mu, atol=1e-14)
    np.testing.assert_allclose(lse, np.log(np.exp(theta).sum(axis=1)), rtol=1e-13,
                               atol=1e-13)


def test_stability_under_extreme_scores():
    # large scores must not overflow thanks to max-shift stabilization
    theta = np.array([[1e4, -1e4], [0.0, 1e4]]) / 0.01
    mu = np.full(2, 0.5)
    out, lse = kernels.coupling(theta, mu)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=1), mu, atol=1e-14)
    # every other entry lies 1e6 or more below its row's maximum, whose
    # exp(0) = 1 then takes the whole row sum
    assert lse.tolist() == [1e6, 1e6]


def test_column_softmax_stable_under_extreme_scores():
    # exp(1e6) overflows: column 0 splits its mass over two tied maxima,
    # columns 1 and 2 put all of it on one entry
    theta = np.array([[1e6, -1e6, 0.0], [1e6, 0.0, 1e6]])
    weights = np.array([[1.0, 2.0], [0.5, -3.0], [0.25, 1.0]])
    lse, moments = kernels.column_softmax(theta, weights)
    p = np.array([[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]])
    np.testing.assert_allclose(lse, [1e6 + np.log(2.0), 0.0, 1e6], rtol=1e-15)
    np.testing.assert_allclose(theta, p, atol=1e-15)
    np.testing.assert_allclose(moments, p @ weights, atol=1e-15)
