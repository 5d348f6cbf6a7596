"""Exception hierarchy shared by all modules.

Two broad families matter for the CLI exit codes: ``ValidationError``
(bad inputs, exit code 2) and ``NumericalError`` (a computation that
could not be completed, exit code 3).
"""


class KnnCompressError(Exception):
    """Base class for all library errors."""


class ValidationError(KnnCompressError):
    """Invalid input: wrong shape, empty set, infeasible parameters."""


class NumericalError(KnnCompressError):
    """Numerical failure: loss of positive definiteness, underflow, ..."""


# --- validation -------------------------------------------------------------

class DimensionMismatch(ValidationError):
    pass


class EmptyInput(ValidationError):
    pass


class EmptyPrototypeSet(ValidationError):
    pass


class EmptyReference(ValidationError):
    pass


class TooFewInputs(ValidationError):
    pass


class BadParameters(ValidationError):
    pass


class InfeasibleMarginals(ValidationError):
    pass


class InconsistentInput(ValidationError):
    pass


class NonFiniteInput(ValidationError):
    pass


class NotSpdInput(ValidationError):
    pass


# --- numerical --------------------------------------------------------------

class NotPositiveDefinite(NumericalError):
    pass


class NotConverged(NumericalError):
    pass


class DegeneratePi(NumericalError):
    pass


# --- warnings ---------------------------------------------------------------

class ClassStarved(UserWarning):
    """Fewer prototypes than classes: some classes receive none."""


class NoConvergence(UserWarning):
    """An iterative routine hit its iteration cap; best iterate returned."""
