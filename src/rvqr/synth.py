"""Synthetic data from the linear-in-covariates quantile model
Y_k = a0 + a1*U_k + (b0 + b1*U_k) * (X w_k), U uniform and independent of X.

With the defaults (a0=0, a1=1, b0=1, b1=1, scalar X on [0,1]) the true
conditional quantile is Q(x, t) = t + (1 + t) x, monotone in t for x > -1.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .measures import Dataset


@dataclass(frozen=True)
class SynthSpec:
    n_samples: int = 2000
    seed: int = 7
    d: int = 1
    n_cov: int = 1
    x_law: str = "uniform"
    a0: float = 0.0
    a1: float = 1.0
    b0: float = 1.0
    b1: float = 1.0
    weights: tuple = ()

    def __post_init__(self):
        if self.n_samples < 1 or self.d < 1 or self.n_cov < 0:
            raise ConfigError("invalid synthetic-data shape")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.x_law not in ("uniform", "normal"):
            raise ConfigError(f"unknown x_law {self.x_law!r}")
        w = self.weights or tuple(
            tuple(1.0 if k == 0 else 0.5 for k in range(self.n_cov))
            for _ in range(self.d)
        )
        object.__setattr__(self, "weights", tuple(tuple(map(float, row)) for row in w))
        coefs = (self.a0, self.a1, self.b0, self.b1)
        if not (np.isfinite(coefs).all() and np.isfinite(self.weights).all()):
            raise ConfigError(f"synthetic-data coefficients must be finite, got "
                              f"a0, a1, b0, b1 = {coefs} and weights {self.weights}")

    def to_json_dict(self):
        return {
            "n_samples": self.n_samples, "seed": self.seed, "d": self.d,
            "n_cov": self.n_cov, "x_law": self.x_law,
            "a0": self.a0, "a1": self.a1, "b0": self.b0, "b1": self.b1,
            "weights": [list(r) for r in self.weights],
        }


def generate(spec):
    """Returns (Dataset, U) with raw (uncentered) covariates."""
    rng = np.random.default_rng(spec.seed)
    J = spec.n_samples
    if spec.x_law == "uniform":
        X = rng.uniform(0.0, 1.0, size=(J, spec.n_cov))
    else:
        X = rng.standard_normal((J, spec.n_cov))
    U = rng.uniform(0.0, 1.0, size=(J, spec.d))
    W = np.array(spec.weights)  # d x n_cov
    proj = X @ W.T if spec.n_cov else np.zeros((J, spec.d))
    Y = spec.a0 + spec.a1 * U + (spec.b0 + spec.b1 * U) * proj
    return Dataset(
        X=X, Y=Y, nu=np.full(J, 1.0 / J), x_mean=np.zeros(spec.n_cov),
        x_names=tuple(f"x_{k + 1}" for k in range(spec.n_cov)),
        y_names=tuple(f"y_{k + 1}" for k in range(spec.d)),
        meta={"generator": spec.to_json_dict()},
    ), U


def true_quantile(spec, x, t):
    """Component-wise ground truth Q_k(x, t) for raw covariate x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    W = np.array(spec.weights)
    proj = W @ x if spec.n_cov else np.zeros(spec.d)
    return spec.a0 + spec.a1 * t + (spec.b0 + spec.b1 * t) * proj


def write_csv(path, data):
    np.savetxt(path, np.hstack([data.X, data.Y]), fmt="%.17g", delimiter=",",
               header=",".join((*data.x_names, *data.y_names)), comments="",
               encoding="utf-8")


def write_truth(path, spec):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_json_dict(), fh, indent=1)
