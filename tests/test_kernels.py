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


def test_dual_terms_matches_direct_formula(rng):
    theta, mu, nu, X = _instance(rng)
    for N in (3, 0):
        work = theta.copy()
        lse, gpsi, gb = kernels.dual_terms(work, mu, nu, X[:, :N])
        alpha = _direct_coupling(theta, mu)
        np.testing.assert_allclose(lse, np.log(np.exp(theta).sum(axis=1)),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(gpsi, nu - alpha.sum(axis=0), rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(gb, -(alpha @ X[:, :N]), rtol=1e-13, atol=1e-15)
        assert gb.shape == (theta.shape[0], N)


def test_coupling_matches_direct_formula(rng):
    theta, mu, _, _ = _instance(rng)
    a = kernels.coupling(theta.copy(), mu)
    np.testing.assert_allclose(a, _direct_coupling(theta, mu), rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(a.sum(axis=1), mu, atol=1e-14)


def test_logsumexp_all_matches_direct_formula(rng):
    theta, _, _, _ = _instance(rng)
    assert abs(kernels.logsumexp_all(theta) - np.log(np.exp(theta).sum())) < 1e-12


def test_stability_under_extreme_scores():
    # large scores must not overflow thanks to max-shift stabilization
    theta = np.array([[1e4, -1e4], [0.0, 1e4]]) / 0.01
    mu = np.full(2, 0.5)
    out = kernels.coupling(theta, mu)
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out.sum(axis=1), mu, atol=1e-14)


def test_dual_terms_stable_under_extreme_scores():
    # exp(1e6) overflows: row 0 splits its mass over two tied maxima, row 1
    # puts all of it on one entry
    theta = np.array([[1e6, -1e6, 1e6], [0.0, 1e6, 0.0]])
    mu = np.array([0.25, 0.75])
    nu = np.full(3, 1.0 / 3.0)
    X = np.array([[1.0], [2.0], [-3.0]])
    lse, gpsi, gb = kernels.dual_terms(theta, mu, nu, X)
    alpha = np.array([[0.125, 0.0, 0.125], [0.0, 0.75, 0.0]])
    np.testing.assert_allclose(lse, [1e6 + np.log(2.0), 1e6], rtol=1e-15)
    np.testing.assert_allclose(gpsi, nu - alpha.sum(axis=0), atol=1e-15)
    np.testing.assert_allclose(gb, -(alpha @ X), atol=1e-15)
