"""Shared exception types.

Every contract violation in the library raises one of these rather than a bare
ValueError, so callers can map failure classes to exit codes: the CLI exits
2 on ParameterError (bad input) and 1 on NumericalFailure,
InvariantViolation and ContractViolation (library bugs).
"""


class ContractViolation(ValueError):
    """An argument broke a structural precondition (base-point mismatch, off-manifold point)."""


class OutOfBall(ValueError):
    """A tangent vector left the constraint ball of radius D."""


class EmptyBatch(ValueError):
    """A gradient was requested over an empty index batch."""


class ParameterError(ValueError):
    """A solver parameter is out of its documented range."""


class InvariantViolation(RuntimeError):
    """An internal invariant broke: a library bug, not bad input."""


class NumericalFailure(RuntimeError):
    """Non-finite values appeared mid-run.

    Carries the iteration index at which the estimator or iterate went bad.
    It pickles from its raw message and iteration, so it can cross a
    process boundary.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.message = message
        self.iteration = iteration

    def __reduce__(self):
        return type(self), (self.message, self.iteration), self.__dict__
