"""Exception types shared across the package."""


class GPError(Exception):
    """Base class for all package errors."""


class InputError(GPError):
    """An input the program cannot work with; gp exits with exit_code."""

    exit_code = 2


class NumericalFailure(GPError):
    """A computation that did not deliver; gp exits with exit_code."""

    exit_code = 3


class OddSampleCount(InputError):
    """Grid sample count must be even."""


class InvalidGrid(InputError):
    """Grid parameters out of range (L not finite and positive, or n < 16)."""


class FileFormatError(InputError):
    """Malformed GPF1 file or mismatched grid."""


class BracketNotFound(NumericalFailure):
    """Shooting bracket does not straddle the decaying solution."""


class NonConvergence(NumericalFailure):
    """Iteration budget exhausted without meeting the tolerance."""


class InvalidProfile(InputError):
    """Radial profile violates the Pohozaev identities."""


class BoxTooSmall(InputError):
    """Radial profile does not fit inside the periodic box."""


class UnnormalizedInput(InputError):
    """Field expected to have unit mass."""


class DegenerateField(InputError):
    """Field with vanishing quartic integral."""


class ResolutionExceeded(InputError):
    """Requested dilation is not resolvable on this grid."""


class CriticalCouplingGuard(InputError):
    """Coupling too close to the critical value for a finite grid."""


class NonFiniteIterate(NumericalFailure):
    """The minimizer met a non-finite residual or trial energy."""


class UnderResolved(NumericalFailure):
    """Field too narrow to rescale reliably."""


class InsufficientData(NumericalFailure):
    """Not enough resolved sweep entries for a fit."""


class ConfigError(InputError):
    """Bad configuration file or CLI arguments."""
