"""Exception types shared across the package."""

import numpy as np

__all__ = ["ImmlabError", "ConvergenceError", "ImmersionRegularityError",
           "ShapeSpecError", "DegreeMismatchError"]


class ImmlabError(Exception):
    """Base class for package errors."""


class DegreeMismatchError(ImmlabError, ValueError):
    """Coefficient or sample array does not match the grid band limit."""


class ImmersionRegularityError(ImmlabError, ValueError):
    """Candidate immersion is degenerate (metric determinant too small)."""


class ConvergenceError(ImmlabError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    status classifies the failure ("stalled" or "diverged"); history holds
    the solver's residual norms up to the failure, empty when it kept none.
    """

    def __init__(self, message: str, status: str = "diverged",
                 history=()):
        super().__init__(message)
        self.status = status
        self.history = np.asarray(history, dtype=float)


class ShapeSpecError(ImmlabError, ValueError):
    """A shape specification string or immersion file is malformed."""
