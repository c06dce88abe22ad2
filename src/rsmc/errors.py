"""Exception types shared across the package."""


class RsmcError(Exception):
    """Base class for every error raised by this package."""


class ParseError(RsmcError):
    """Malformed input: an edge list, a matrix file, a similarity spec JSON
    or an ``--epsilon-sweep`` string."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class WeightError(RsmcError):
    """Edge weight outside the allowed range."""


class DuplicateEdgeError(RsmcError):
    """The same ordered vertex pair appeared more than once."""


class DirectedInputError(RsmcError):
    """An operation defined only for undirected graphs received a directed one."""


class DimensionMismatchError(RsmcError):
    """Matrix dimensions do not match the graph, or each other."""


class MatrixValueError(RsmcError, ValueError):
    """A relation strength matrix holds an entry outside [0, +inf] (NaN or -inf)."""


class LabelError(RsmcError):
    """A vertex label cannot be written to the edge-list format and read back."""


class ThresholdError(RsmcError, ValueError):
    """A threshold or tolerance (epsilon, tol or their sum) is out of its allowed range."""


class InvalidSpecError(RsmcError):
    """A similarity specification violates its invariants."""


class UnknownDatasetError(RsmcError):
    """No builtin dataset is registered under the requested name."""


class NumericalError(RsmcError):
    """A numerical routine failed to reach the required accuracy."""


class SingularityError(NumericalError):
    """A matrix expected to be invertible is numerically singular."""
