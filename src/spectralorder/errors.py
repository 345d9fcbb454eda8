"""Exception types raised across the package.

Every failure mode has its own class, derived from one of two categories
that carry the CLI exit code: :class:`InvalidInputError` (bad input or a
violated precondition, exit 2) and :class:`NumericalError` (numerical
failure, exit 3, or 4 for :class:`NoConvergenceError`). Callers tell
failures apart without string matching, and the CLI keeps no class list.
"""

from __future__ import annotations


class SpectralOrderError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(SpectralOrderError):
    """Base class for bad input and violated preconditions (exit code 2)."""

    exit_code = 2


class NumericalError(SpectralOrderError):
    """Base class for numerical backend failures (exit code 3)."""

    exit_code = 3


# --- input / precondition violations ---------------------------------------


class InvalidParameterError(InvalidInputError, ValueError):
    """A tolerance or probe-count parameter is out of range. Also a ValueError,
    so callers that catch ValueError keep working."""


class NonFiniteError(InvalidInputError):
    """Input entries include NaN or infinity."""


class NonSquareError(InvalidInputError):
    """Input array is not a square matrix."""


class NotHermitianError(InvalidInputError):
    """Input asymmetry exceeds the construction tolerance."""


class DimMismatchError(InvalidInputError):
    """Operands have different dimensions."""


class NotProjectionError(InvalidInputError):
    """A matrix claimed to be a projection is not one within tolerance."""


class EmptySetError(InvalidInputError):
    """An operation requiring a nonempty collection received an empty one."""


class NonPositiveScaleError(InvalidInputError):
    """Affine maps of the order require a strictly positive scale factor."""


class DeltaTooLargeError(InvalidInputError):
    """Shift exceeds the admissible floor, so a shifted term is not PSD, or
    is so large that rounding it erases the spectrum."""


class NotInvertibleError(InvalidInputError):
    """A shifted element is not positive invertible within the floor."""


class NotOrthogonalError(InvalidInputError):
    """Elements of a claimed orthogonal family have a nonzero product."""


class TooFewElementsError(InvalidInputError):
    """Orthogonal-family formulas require at least two elements."""


class NotCommutingError(InvalidInputError):
    """A claimed commuting family has a commutator above tolerance."""


class NotMonotoneError(InvalidInputError):
    """A claimed monotone chain has an adjacent pair out of order."""


class NotPositiveError(InvalidInputError):
    """An operand required to be positive semidefinite is not."""


class ClassViolationError(InvalidInputError):
    """An input does not belong to the operator class it was claimed in."""


class InvalidSpecError(InvalidInputError):
    """Instance-generator specification is malformed."""


class UnknownSuiteError(InvalidInputError):
    """Requested verification suite id does not exist."""


class InvalidFamilyError(InvalidInputError):
    """A spectral family violates monotonicity or does not end at the identity."""


# --- numerical failures ------------------------------------------------------


class EigenFailureError(NumericalError):
    """The eigensolver backend did not converge."""


class InternalLatticeError(NumericalError):
    """A lattice construction produced a non-monotone projection family.

    This indicates a tolerance misconfiguration rather than bad input, so it
    is never silently repaired.
    """


class NoConvergenceError(NumericalError):
    """An iteration hit its cap before meeting the stopping criterion.

    Carries the last iterate and residual so callers can still compare it
    against the lattice-route answer. Exit code 4.
    """

    exit_code = 4

    def __init__(self, message, last_iterate=None, residual=None, trace=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual
        self.trace = trace if trace is not None else []
