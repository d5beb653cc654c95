"""Exception types shared across the package."""

__all__ = [
    "CsvFormatError",
    "DegenerateWeightsError",
    "DisconnectedGraphError",
    "EigenSolverError",
    "GeneralPositionError",
    "LdrLleError",
    "SingularNeighborhoodError",
]


class LdrLleError(Exception):
    """Base class for algorithm-level failures.  point_index is the failing
    row of a stack of neighborhoods, or None where no row is named."""

    def __init__(self, message, point_index=None):
        super().__init__(message)
        self.point_index = point_index


class CsvFormatError(ValueError):
    """Malformed CSV input (text that does not decode, ragged rows or unparseable cells)."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class SingularNeighborhoodError(LdrLleError):
    """Gram matrix is singular to working precision and no regularization was asked for."""

    def __init__(self, message, rcond=None, point_index=None):
        super().__init__(message, point_index)
        self.rcond = rcond


class DegenerateWeightsError(LdrLleError):
    """Solved weight vector sums to zero, so normalization is undefined."""


class GeneralPositionError(LdrLleError):
    """Projected neighborhood is not in general position: the ones vector
    (numerically) lies inside the retained rank-d subspace, so no weight
    vector in the discarded subspace can sum to one."""

    def __init__(self, message, alpha=None, point_index=None):
        super().__init__(message, point_index)
        self.alpha = alpha


class DisconnectedGraphError(LdrLleError):
    """Weight graph has more than one closed class (a strongly connected
    component that no weight leaves); the zero eigenvalue of the embedding
    matrix is then not simple."""

    def __init__(self, message, n_components=None):
        super().__init__(message)
        self.n_components = n_components


class EigenSolverError(LdrLleError):
    """Eigenvalue solver failed to converge or to identify the constant mode."""
