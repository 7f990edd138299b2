"""Data ingestion and CSV writing, covariate centering, empirical measures
and rank grids."""

import csv
import math
import re
import zlib
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
WRITE_ROWS = 2 ** 14  # rows per format call of write_csv


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
        for var, names, n in (("X", self.x_names, X.shape[1]), ("Y", self.y_names, Y.shape[1])):
            if names and len(names) != n:
                raise DataError(f"{len(names)} names for the {n} columns of {var}")
        if len(self.x_mean) != X.shape[1] or not np.isfinite(self.x_mean).all():
            raise DataError(f"x_mean must hold {X.shape[1]} finite means, one per column "
                            f"of X; got {len(self.x_mean)}: {self.x_mean}")

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
        # written so that a NaN fails them
        if not ((mu > 0).all() and abs(mu.sum() - 1.0) <= WEIGHT_TOL):
            raise InvalidGridError("mu must be positive and sum to 1")
        if not ((U > 0) & (U <= 1)).all():
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
    """Spread (max - min) of a sample, used to size tolerances; falls back to
    1 for degenerate samples."""
    y = np.asarray(y, dtype=float)
    s = float(y.max() - y.min())
    return s if s > 0 else 1.0


# a line of whitespace, separators and quotes only: csv may split it into
# blank cells alone
_MAYBE_BLANK = re.compile(r'[\s,"]*')
# such a line after the header, found by one search of the whole text: a
# file without blank records then makes no per-line call
_MAYBE_BLANK_LINE = re.compile(r'\n(?:[^\S\n]|[,"])*(?:\n|\Z)')


def _is_blank(line):
    """True for a record whose every cell is whitespace; the reader skips it."""
    return (_MAYBE_BLANK.fullmatch(line) is not None
            and all(not c.strip() for c in next(csv.reader([line]), [])))


def _check_cell(path, line, column, raw):
    """ParseError unless raw is a finite number that np.loadtxt also reads:
    underscores and non-ASCII digits, which float() alone accepts, are
    refused, so this check is never laxer than the bulk parse."""
    if raw is None:
        raise ParseError(path, line, column, None)
    cell = raw.strip()
    try:
        value = float(cell) if cell.isascii() and "_" not in cell else math.nan
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(path, line, column, raw)


def _raise_first_bad_cell(path, lines, columns):
    """Check every requested cell in file order; raises at the first bad one."""
    for n, line in enumerate(lines[1:], 2):
        if _is_blank(line):
            continue
        rec = next(csv.reader([line]))
        for name, k in columns:
            _check_cell(path, n, name, rec[k] if k < len(rec) else None)


def load_csv(path, x_cols, y_cols):
    """Read a headed CSV into a Dataset with uniform weights 1/J.

    x_cols / y_cols are column names (list or comma-separated string). No
    constant column is added to X: the per-rank marginal constraint already
    plays the intercept role.

    The file is UTF-8, a leading byte-order mark allowed; lines end in LF,
    CRLF or CR. Cells may be quoted and padded with whitespace; records whose
    cells are all blank are skipped. A requested cell that is missing,
    non-numeric or non-finite raises ParseError naming its file line. Each
    requested name must occur once in the header and once in the request.
    """
    if isinstance(x_cols, str):
        x_cols = [c for c in x_cols.split(",") if c]
    if isinstance(y_cols, str):
        y_cols = [c for c in y_cols.split(",") if c]
    x_cols = list(x_cols)
    y_cols = list(y_cols)
    if not y_cols:
        raise DataError("at least one response column is required")

    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise DataError(f"{path}, line {line}: not UTF-8 text "
                        f"(byte {exc.object[exc.start]:#04x}: {exc.reason})") from None
    if not text:
        raise EmptyDataError(f"{path}: file is empty")
    # universal newlines have made every line end "\n"; str.splitlines would
    # also break at "\x0b", "\x1c" or "\u2028" inside a line
    lines = text.split("\n")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    requested = x_cols + y_cols
    for col in requested:
        if col not in header:
            raise MissingColumnError(col, header)
        if header.count(col) > 1 or requested.count(col) > 1:
            raise DataError(f"{path}: column {col!r} is ambiguous: {header.count(col)} "
                            f"in the header, {requested.count(col)} in the request "
                            f"(covariates {x_cols}, responses {y_cols})")
    columns = [(col, header.index(col)) for col in requested]

    # the empty string after a final newline is no record
    final = text.endswith("\n")
    if _MAYBE_BLANK_LINE.search(text, len(lines[0]), len(text) - final):
        records = [line for line in lines[1:] if not _is_blank(line)]
    else:
        records = lines[1:len(lines) - final]
    if not records:
        raise EmptyDataError(f"{path}: no data rows")
    try:
        values = np.loadtxt(records, delimiter=",", usecols=[k for _, k in columns],
                            ndmin=2, quotechar='"', comments=None)
    except ValueError as exc:
        _raise_first_bad_cell(path, lines, columns)
        raise DataError(f"{path}: {exc}") from None
    if not np.isfinite(values).all():
        _raise_first_bad_cell(path, lines, columns)
    J = values.shape[0]
    # contiguous copies: the solver rounds differently on strided views; the
    # checksum binds a model fitted on the values to them, row order included
    return Dataset(
        X=np.ascontiguousarray(values[:, :len(x_cols)]),
        Y=np.ascontiguousarray(values[:, len(x_cols):]),
        nu=np.full(J, 1.0 / J), x_mean=np.zeros(len(x_cols)),
        x_names=tuple(x_cols), y_names=tuple(y_cols),
        meta={"source": str(path),
              "crc32": zlib.crc32(values.astype("<f8", copy=False))},
    )


def write_csv(path, header, rows):
    """Write the header line, then each row of the 2-D array rows with every
    value as %.17g, which load_csv reads back bit for bit."""
    rows = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, rows.shape[0], WRITE_ROWS):
            block = rows[s:s + WRITE_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


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
    if n ** d * d * 8 > np.iinfo(np.intp).max:
        raise InvalidGridError(f"grid of {n}^{d} nodes is too large for memory")
    axis = np.arange(1, n + 1, dtype=float) / n
    # the lexicographic product, last axis fastest
    U = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    I = U.shape[0]
    return RankGrid(U=U, mu=np.full(I, 1.0 / I))
