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
    def __init__(self, row, column, value):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"non-numeric or non-finite value {value!r} in column {column!r} at data row {row}"
        )


class EmptyDataError(DataError):
    pass


class InvalidGridError(RvqrError):
    pass


class ConfigError(RvqrError):
    pass


class NonConvergenceError(RvqrError):
    """Iteration budget exhausted. Carries the best iterate found."""

    def __init__(self, message, best=None, report=None):
        self.best = best
        self.report = report
        super().__init__(message)


class InsufficientMassError(RvqrError):
    """Conditional-quantile denominator fell below the mass floor."""

    def __init__(self, x, rank_index, mass):
        self.x = x
        self.rank_index = rank_index
        self.mass = mass
        super().__init__(
            f"conditional mass {mass:.3e} at rank index {rank_index} is below the floor; "
            "consider the ball-neighborhood variant (eta > 0)"
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

