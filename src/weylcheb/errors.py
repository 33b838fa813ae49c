"""Exception types shared across the package."""


class WeylchebError(Exception):
    """Base class for all package errors."""


class TypeSpecError(WeylchebError, ValueError):
    """Malformed or unsupported root-system type specification."""


class DimensionError(WeylchebError, ValueError):
    """Vector or matrix dimensions do not match the ambient rank."""


class CapExceededError(WeylchebError):
    """A size cap (group order, permutation entries, automaton transitions) would be exceeded."""


class ContinuationError(WeylchebError):
    """Path lifting failed: the step size fell below the minimum.  The
    witness: `path`, the index of the failing path in its batch; `t` and
    `step`, where it failed; `value`, its last Newton residual or the
    ratio of its last step's move toward a wall to its distance from it."""

    def __init__(self, message, path=None, t=None, step=None, value=None):
        super().__init__(message)
        self.path, self.t, self.step, self.value = path, t, step, value


class DeckMatchError(WeylchebError):
    """No deck transformation maps one fiber point to the other within tolerance."""
