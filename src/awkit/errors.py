"""Exception types shared across the toolkit."""


class AlgebraError(Exception):
    """Base class for every domain error raised by awkit."""


class BadArgument(ValueError):
    """A numeric argument lies outside its documented domain, such as a
    ladder or resolvent index below 1, a negative or non-finite rate, or a
    finite input whose arithmetic overflows to a non-finite entry.

    Not an AlgebraError: it rejects the question, not the mathematics.
    """


class SignatureMismatch(AlgebraError):
    """Arithmetic attempted between elements of different block signatures."""


class NotSelfAdjoint(AlgebraError):
    """A self-adjoint argument was required but not supplied."""


class NonConvergence(AlgebraError):
    """The Jacobi sweep exhausted its budget above the off-diagonal target."""


class NotPositive(AlgebraError):
    """A positive (semidefinite) argument was required but not supplied."""


class EnvelopeViolation(AlgebraError):
    """A sequence term exceeds the declared tail-rate envelope."""


class NotCommuting(AlgebraError):
    """Generators were required to commute pairwise but do not."""


class NotNormal(AlgebraError):
    """A normal element (commuting with its adjoint) was required."""


class NotContained(AlgebraError):
    """A subalgebra inclusion precondition failed."""


class UnknownPoint(AlgebraError):
    """A point outside the measure's domain spectrum was referenced."""


class IncompleteFunction(AlgebraError):
    """A spectral function is missing a value on some spectrum point."""


class TooManyPoints(AlgebraError):
    """Subset enumeration is limited to small spectra and few minimal projections."""


class IncompleteOrdering(AlgebraError):
    """An ordering failed to enumerate the spectrum exactly once."""


class SlowConvergence(AlgebraError):
    """The regularized ladder stalled above its analytic gap bound."""


class ZeroElement(AlgebraError):
    """The zero element was supplied where a nonzero one is required."""


class BadCut(AlgebraError):
    """A spectral cut point lies outside the admissible open interval."""
