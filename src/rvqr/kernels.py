"""Hot numeric kernels: max-stabilized log-sum-exp / softmax reductions.

Every kernel overwrites the score array it is given (I x J, or a column
block of it), so a caller that evaluates many points reuses one workspace
and allocates no temporaries of its size.
"""

import numpy as np


def column_softmax(theta, weights):
    """Column log-sum-exps and softmax moments in one pass over theta.

    With p_ij = exp(theta_ij) / sum_k exp(theta_kj), the softmax over the
    rows i of column j, returns (lse, p @ weights) for lse_j =
    log sum_i exp(theta_ij) and a J x K weights matrix. theta is overwritten
    with p.
    """
    m = theta.max(axis=0)
    np.subtract(theta, m, out=theta)
    np.exp(theta, out=theta)
    s = theta.sum(axis=0)
    np.multiply(theta, 1.0 / s, out=theta)
    return m + np.log(s), theta @ weights


def coupling(theta, mu):
    """Row-softmax coupling alpha_ij = mu_i exp(theta_ij) / sum_k exp(theta_ik),
    written into theta, and its row log-sum-exps: returns (alpha, lse)."""
    m = theta.max(axis=1)
    np.subtract(theta, m[:, None], out=theta)
    np.exp(theta, out=theta)
    s = theta.sum(axis=1)
    theta *= (mu / s)[:, None]
    return theta, m + np.log(s)

