"""Hot numeric kernels: row-stabilized log-sum-exp / softmax reductions.

Every kernel takes theta, the I x J array (u_i.y_j - b_i.x_j - psi_j) / eps.
dual_terms and coupling overwrite it in place, so a caller that evaluates
many points reuses one workspace and allocates no I x J temporaries.
"""

import numpy as np


def _exp_rows(theta):
    """In place theta <- exp(theta - rowmax); returns (rowmax, row sums)."""
    m = theta.max(axis=1)
    np.subtract(theta, m[:, None], out=theta)
    np.exp(theta, out=theta)
    return m, theta.sum(axis=1)


def dual_terms(theta, mu, nu, X):
    """Row log-sum-exp plus both dual gradients in one pass over theta.

    With alpha_ij = mu_i exp(theta_ij) / sum_k exp(theta_ik), returns
    (lse, grad_psi, grad_b): lse_i = log sum_j exp(theta_ij),
    grad_psi = nu - alpha^T 1 and grad_b = -alpha X. theta is overwritten.
    """
    m, z = _exp_rows(theta)
    w = mu / z
    # alpha = diag(w) exp(theta - m) is never formed: both of its
    # contractions go through the unscaled rows
    return m + np.log(z), nu - w @ theta, -(w[:, None] * (theta @ X))


def coupling(theta, mu):
    """Row-softmax coupling alpha_ij = mu_i exp(theta_ij) / sum_k exp(theta_ik),
    written into theta and returned."""
    _, z = _exp_rows(theta)
    theta *= (mu / z)[:, None]
    return theta


def logsumexp_all(theta):
    """log sum_{ij} exp(theta_ij), stabilized by the global max."""
    m = theta.max()
    return m + np.log(np.exp(theta - m).sum())
