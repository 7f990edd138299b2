"""The stabilized kernel against direct, unstabilized formulas on moderate
scores, against closed forms on scores whose exponentials overflow, and, on
transposed blocks, bit for bit against the column kernel it replaced."""

import numpy as np

from conftest import random_instance
from rvqr import kernels, solver


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
    # at mu = 1 the row softmax of theta's transpose is the column softmax
    # of theta, written into theta through the view
    theta, _, _, _ = _instance(rng)
    work = theta.copy()
    p, lse = kernels.coupling(work.T, 1.0)
    ex = np.exp(theta)
    assert np.shares_memory(p, work)
    np.testing.assert_allclose(lse, np.log(ex.sum(axis=0)), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(work, ex / ex.sum(axis=0), rtol=1e-13, atol=1e-15)


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
    _, lse = kernels.coupling(theta.T, 1.0)
    np.testing.assert_allclose(lse, [1e6 + np.log(2.0), 0.0, 1e6], rtol=1e-15)
    np.testing.assert_allclose(theta, [[0.5, 0.0, 0.0], [0.5, 1.0, 1.0]], atol=1e-15)


def _column_softmax(theta, weights):
    """The column kernel the semi-dual pass ran before it called coupling on
    each transposed block, kept as the reference of the test below."""
    m = theta.max(axis=0)
    np.subtract(theta, m, out=theta)
    np.exp(theta, out=theta)
    s = theta.sum(axis=0)
    np.multiply(theta, 1.0 / s, out=theta)
    return m + np.log(s), theta @ weights


def test_transposed_coupling_is_the_column_kernel_bit_for_bit(rng, monkeypatch):
    # the semi-dual pass's lse, p and p @ weights are the old column
    # kernel's, bit for bit, on free arrays and on blocks of a workspace
    monkeypatch.setattr(solver, "BLOCK_ENTRIES", 200)
    data, grid = random_instance(rng, I=6, J=100, N=2)
    sd = solver.SemiDual(data, grid)
    assert [p.shape[1] for p in sd.p] == [40, 40, 20]
    cases = [(np.empty(shape), rng.standard_normal((shape[1], 4)))
             for shape in [(7, 23), (20, 313), (36, 200), (1, 9), (400, 8)]]
    cases += [(sd.p[1], sd.weights[1]), (sd.p[2], sd.weights[2])]
    for p, weights in cases:
        scores = rng.standard_normal(p.shape) * 20
        p[...] = scores
        lse, moments = _column_softmax(p, weights)
        ref = p.copy()
        p[...] = scores
        lse_t = kernels.coupling(p.T, 1.0)[1]
        assert np.array_equal(lse_t, lse) and np.array_equal(p, ref)
        assert np.array_equal(p @ weights, moments)
