"""Exception types raised across the package.

All data-level failures derive from :class:`DataError` so callers (and the
CLI) can distinguish bad input data from programming errors.
"""

__all__ = [
    "DataError",
    "ParseError",
    "RaggedRowError",
    "UnknownLevelError",
    "EmptyInputError",
    "EmptyMaskError",
    "DegenerateClassError",
    "LengthMismatchError",
    "TooFewRowsError",
    "InsufficientCandidatesError",
    "SchemaMismatchError",
    "PredictorMissingError",
]


class DataError(ValueError):
    """Input data violates a documented precondition."""


class ParseError(DataError):
    """Malformed CSV or schema text; carries a row/column location."""

    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class RaggedRowError(ParseError):
    """CSV row whose field count differs from the header."""


class UnknownLevelError(ParseError):
    """Categorical value outside the explicitly declared level list."""


class EmptyInputError(DataError):
    """An estimator was handed zero observations."""


class EmptyMaskError(DataError):
    """A metric was asked to score zero masked cells."""


class DegenerateClassError(DataError):
    """A class has too few rows to fit a classifier."""


class LengthMismatchError(DataError):
    """Paired sequences have different lengths."""


class TooFewRowsError(DataError):
    """Not enough rows for cross-validation."""


class InsufficientCandidatesError(DataError):
    """Fewer candidate rows than requested neighbors."""


class SchemaMismatchError(DataError):
    """Two datasets that must share a schema do not."""


class PredictorMissingError(DataError):
    """A missingness-model predictor column contains missing values."""
