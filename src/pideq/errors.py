"""Exception types shared across the package."""


class BranchCutError(ValueError):
    """Scalar or resolvent argument lies on the branch cut (-inf, 0]."""


class PoleError(ValueError):
    """Resolvent evaluated at the point eigenvalue."""


class ContourError(ValueError):
    """Contour geometry is invalid (e.g. arc radius not below the eigenvalue)."""


class GridMismatchError(ValueError):
    """Two fields living on different grids were combined."""


class NoEigenfunctionError(ValueError):
    """Eigenfunction requested for a parameter set without a point eigenvalue."""


class ConvergenceError(RuntimeError):
    """Fixed-point iteration did not reach the requested tolerance."""


class HorizonTooLargeError(ConvergenceError):
    """Picard map is not a contraction on the requested time horizon."""

    def __init__(self, message, ratio):
        super().__init__(message)
        self.ratio = ratio


class DataTooLargeError(HorizonTooLargeError):
    """Global solver rejected the initial datum (measured contraction >= 1)."""
