"""Hot numeric kernel: the max-stabilized row softmax and log-sum-exp.

`coupling` overwrites the score array it is given, so a caller that
evaluates many points reuses one workspace and allocates no temporaries of
its size. The semi-dual pass gives it the transpose of each column block of
its workspace, whose row softmax is the block's column softmax.
"""

import numpy as np


def coupling(theta, mu):
    """Row-softmax coupling alpha_ij = mu_i exp(theta_ij) / sum_k exp(theta_ik),
    for mu a number or one weight per row, written into theta, and its row
    log-sum-exps: returns (alpha, lse)."""
    m = theta.max(axis=1)
    np.subtract(theta, m[:, None], out=theta)
    np.exp(theta, out=theta)
    s = theta.sum(axis=1)
    theta *= (mu / s)[:, None]
    return theta, m + np.log(s)

