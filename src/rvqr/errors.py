"""Exception hierarchy shared across the package."""


class RvqrError(Exception):
    """Base class for all package errors."""


class DataError(RvqrError):
    """Invalid or unreadable input data."""


class MissingColumnError(DataError):
    def __init__(self, column, available):
        self.column = column
        self.available = list(available)
        super().__init__(
            f"column {column!r} not found; available columns: {self.available}"
        )


class ParseError(DataError):
    """A requested cell that is missing (value None), non-numeric or non-finite;
    line is the 1-based line of the file, the header being line 1."""

    def __init__(self, path, line, column, value):
        self.path = path
        self.line = line
        self.column = column
        self.value = value
        what = ("no value (the record has too few fields)" if value is None
                else f"non-numeric or non-finite value {value!r}")
        super().__init__(f"{path}, line {line}: {what} in column {column!r}")


class EmptyDataError(DataError):
    pass


class InvalidGridError(RvqrError):
    pass


class ConfigError(RvqrError):
    pass


class NonConvergenceError(RvqrError):
    """The pinball baseline, Sinkhorn or HiGHS ended without converging."""


class InsufficientMassError(RvqrError):
    """Conditional-quantile denominator fell below the mass floor."""

    def __init__(self, x, rank_index, mass):
        self.x = x
        self.rank_index = rank_index
        self.mass = mass
        super().__init__(
            f"conditional mass {mass:.3e} at rank index {rank_index} is below the floor; "
            "widen the ball (a larger --eta) or refit at a larger epsilon"
        )


class EmptyBallError(ConfigError):
    """No covariate lies within the query ball (eta = 0: no exact match)."""

    def __init__(self, x, eta, nearest):
        self.x = x
        self.eta = eta
        self.nearest = nearest
        super().__init__(
            f"no covariate within radius {eta:g} of probe; nearest distance is {nearest:g}"
        )

