"""Exception types shared across the package."""


class TvsslError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(TvsslError, ValueError):
    """Array lengths or shapes do not agree."""


class InvalidParameterError(TvsslError, ValueError):
    """A parameter is outside its documented range."""


class NonFiniteInputError(TvsslError, ValueError):
    """Input points contain NaN or infinite coordinates."""


class DegenerateScaleError(TvsslError, ValueError):
    """A length scale collapsed to zero (e.g. duplicate points)."""


class DegenerateInputError(TvsslError, ValueError):
    """Input has no usable signal (e.g. zero vector where a direction is needed)."""


class FactorizationError(TvsslError, RuntimeError):
    """A matrix factorization failed or its solution missed the residual bound."""


class DivergenceError(TvsslError, RuntimeError):
    """An iterative solver blew up past its safety bound."""


class InfeasibleConstraintsError(TvsslError, ValueError):
    """The constraint set of an optimization problem is empty or collapses."""


class CsvParseError(TvsslError, ValueError):
    """A CSV file could not be parsed; the message carries the line number."""
