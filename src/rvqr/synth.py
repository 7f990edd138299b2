"""Synthetic data from one linear-in-covariates quantile model:
Y_k = U_k + (1 + U_k) * (X . w_k), with X uniform on [0, 1]^N, U uniform on
[0, 1]^d and independent of X, and w_k = (1, 1/2, ..., 1/2).

X . w_k >= 0, so Y_k is increasing in U_k at every x drawn, and the true
conditional quantile is Q_k(x, t) = t + (1 + t) (x . w_k), increasing in t.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import ConfigError

# Y = A0 + A1 U + (B0 + B1 U) (X . w), the coefficients truth.json states
A0, A1, B0, B1 = 0.0, 1.0, 1.0, 1.0


@dataclass(frozen=True)
class SynthSpec:
    n_samples: int = 2000
    seed: int = 7
    d: int = 1
    n_cov: int = 1

    def __post_init__(self):
        if self.n_samples < 1 or self.d < 1 or self.n_cov < 0:
            raise ConfigError("invalid synthetic-data shape")
        if self.n_samples * (self.n_cov + self.d) * 8 > np.iinfo(np.intp).max:
            raise ConfigError(f"{self.n_samples} rows of {self.n_cov + self.d} columns "
                              "are too large for memory")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def weights(self):
        """d x n_cov: each row w_k = (1, 1/2, ..., 1/2)."""
        return tuple(tuple(1.0 if k == 0 else 0.5 for k in range(self.n_cov))
                     for _ in range(self.d))

    def to_json_dict(self):
        return {
            "n_samples": self.n_samples, "seed": self.seed, "d": self.d,
            "n_cov": self.n_cov, "x_law": "uniform",
            "a0": A0, "a1": A1, "b0": B0, "b1": B1,
            "weights": [list(r) for r in self.weights],
        }


def generate(spec):
    """Returns (Dataset, U) with raw (uncentered) covariates."""
    rng = np.random.default_rng(spec.seed)
    J = spec.n_samples
    X = rng.uniform(0.0, 1.0, size=(J, spec.n_cov))
    U = rng.uniform(0.0, 1.0, size=(J, spec.d))
    proj = X @ np.array(spec.weights).T if spec.n_cov else np.zeros((J, spec.d))
    Y = A0 + A1 * U + (B0 + B1 * U) * proj
    return measures.Dataset(
        X=X, Y=Y, nu=np.full(J, 1.0 / J), x_mean=np.zeros(spec.n_cov),
        x_names=tuple(f"x_{k + 1}" for k in range(spec.n_cov)),
        y_names=tuple(f"y_{k + 1}" for k in range(spec.d)),
    ), U


def true_quantile(spec, x, t):
    """Component-wise ground truth Q_k(x, t) for raw covariate x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    proj = np.array(spec.weights) @ x if spec.n_cov else np.zeros(spec.d)
    return A0 + A1 * t + (B0 + B1 * t) * proj


def write_csv(path, data):
    measures.write_csv(path, (*data.x_names, *data.y_names), np.hstack([data.X, data.Y]))


def write_truth(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_json_dict(), fh, indent=1)
