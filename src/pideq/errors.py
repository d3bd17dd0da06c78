"""Exception types and the warning helper shared across the package."""

import sys
import warnings


def _warn(message):
    """Issue a UserWarning attributed to the caller's line: the first frame outside pideq.

    A fixed ``stacklevel`` names a package line whenever the warning is
    reached through more package frames than its author counted, such as
    the cached ``grid_model``.
    """
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").partition(".")[0] == "pideq":
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


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
