"""Data ingestion, covariate centering, empirical measures and rank grids."""

import csv
import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DataError,
    EmptyDataError,
    InvalidGridError,
    MissingColumnError,
    ParseError,
)

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Empirical sample (X_j, Y_j) with weights nu_j summing to one.

    X is J x N, Y is J x d. x_mean holds the weighted covariate mean that was
    subtracted by center_covariates (zeros before centering).
    """

    X: np.ndarray
    Y: np.ndarray
    nu: np.ndarray
    x_mean: np.ndarray
    x_names: tuple = ()
    y_names: tuple = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        nu = np.asarray(self.nu, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "x_mean", np.asarray(self.x_mean, dtype=float).ravel())
        if X.shape[0] == 0 or Y.shape[0] == 0:
            raise EmptyDataError("dataset has no rows")
        if X.shape[0] != Y.shape[0] or nu.shape[0] != X.shape[0]:
            raise DataError(
                f"inconsistent row counts: X {X.shape}, Y {Y.shape}, nu {nu.shape}"
            )
        if not (np.isfinite(X).all() and np.isfinite(Y).all() and np.isfinite(nu).all()):
            raise DataError("dataset contains NaN or Inf entries")
        if (nu <= 0).any():
            raise DataError("all weights nu_j must be strictly positive")
        if abs(nu.sum() - 1.0) > WEIGHT_TOL:
            raise DataError(f"weights must sum to 1, got {nu.sum()!r}")

    @property
    def n_obs(self):
        return self.X.shape[0]

    @property
    def n_cov(self):
        return self.X.shape[1]

    @property
    def n_dim(self):
        return self.Y.shape[1]


@dataclass(frozen=True)
class RankGrid:
    """Discrete latent ranks u_i in (0,1]^d with weights mu_i."""

    U: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        mu = np.asarray(self.mu, dtype=float).ravel()
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "mu", mu)
        if U.shape[0] != mu.shape[0]:
            raise InvalidGridError("U and mu row counts differ")
        if (mu <= 0).any() or abs(mu.sum() - 1.0) > WEIGHT_TOL:
            raise InvalidGridError("mu must be positive and sum to 1")
        if (U <= 0).any() or (U > 1).any():
            raise InvalidGridError("grid nodes must lie in (0, 1]")

    @property
    def n_nodes(self):
        return self.U.shape[0]

    @property
    def n_dim(self):
        return self.U.shape[1]

    def to_json_dict(self):
        return {
            "U": [self.U[:, k].tolist() for k in range(self.n_dim)],
            "mu": self.mu.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc):
        """Reads U and mu; other keys, such as the "scheme" label that
        older model files carry, are ignored."""
        return cls(U=np.array(doc["U"], dtype=float).T, mu=np.array(doc["mu"]))


def value_scale(y):
    """Spread (max - min) of a sample, used to size tolerances and smoothing
    widths; falls back to 1 for degenerate samples."""
    y = np.asarray(y, dtype=float)
    s = float(y.max() - y.min())
    return s if s > 0 else 1.0


def _parse_cell(raw, row, column):
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ParseError(row, column, raw) from None
    if not math.isfinite(value):
        raise ParseError(row, column, raw)
    return value


def load_csv(path, x_cols, y_cols):
    """Read a headed CSV into a Dataset with uniform weights 1/J.

    x_cols / y_cols are column names (list or comma-separated string). No
    constant column is added to X: the per-rank marginal constraint already
    plays the intercept role.
    """
    if isinstance(x_cols, str):
        x_cols = [c for c in x_cols.split(",") if c]
    if isinstance(y_cols, str):
        y_cols = [c for c in y_cols.split(",") if c]
    x_cols = list(x_cols)
    y_cols = list(y_cols)
    if not y_cols:
        raise DataError("at least one response column is required")

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        wanted = x_cols + y_cols
        for col in wanted:
            if col not in header:
                raise MissingColumnError(col, header)
        idx = {col: header.index(col) for col in wanted}

        rows_x, rows_y = [], []
        for r, rec in enumerate(reader):
            if not rec or all(not c.strip() for c in rec):
                continue
            rows_x.append([_parse_cell(rec[idx[c]], r, c) for c in x_cols])
            rows_y.append([_parse_cell(rec[idx[c]], r, c) for c in y_cols])

    if not rows_y:
        raise EmptyDataError(f"{path}: no data rows")
    J = len(rows_y)
    X = np.array(rows_x, dtype=float).reshape(J, len(x_cols))
    Y = np.array(rows_y, dtype=float).reshape(J, len(y_cols))
    return Dataset(
        X=X, Y=Y, nu=np.full(J, 1.0 / J), x_mean=np.zeros(len(x_cols)),
        x_names=tuple(x_cols), y_names=tuple(y_cols),
        meta={"source": str(path)},
    )


def center_covariates(data):
    """Subtract the nu-weighted covariate mean; idempotent up to rounding."""
    if data.n_cov == 0:
        return data
    xbar = data.nu @ data.X
    return replace(data, X=data.X - xbar[None, :], x_mean=data.x_mean + xbar)


def make_rank_grid(d, n):
    """Right-endpoint grid i/n per axis; tensor product for d >= 2 (I = n^d)."""
    if d < 1:
        raise InvalidGridError(f"dimension must be >= 1, got {d}")
    if n < 2:
        raise InvalidGridError(f"grid needs at least 2 nodes per axis, got {n}")
    axis = np.arange(1, n + 1, dtype=float) / n
    if d == 1:
        U = axis[:, None]
    else:
        U = np.array(list(itertools.product(axis, repeat=d)), dtype=float)
    I = U.shape[0]
    return RankGrid(U=U, mu=np.full(I, 1.0 / I))
