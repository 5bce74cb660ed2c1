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


class NotProjection(AlgebraError, ValueError):
    """An element offered as a projection is not idempotent or not
    self-adjoint within 2 pos_slack."""


class PostconditionFailed(AlgebraError, RuntimeError):
    """A construction's result lacks a property it has in exact arithmetic,
    as a tolerance far from roundoff can make it."""


class NotContained(AlgebraError):
    """A subalgebra inclusion precondition failed."""


class UnknownPoint(AlgebraError):
    """A point outside the measure's domain spectrum was referenced."""


class IncompleteFunction(AlgebraError):
    """A spectral function is missing a value on some spectrum point."""


class SlowConvergence(AlgebraError):
    """The regularized ladder stalled above its analytic gap bound."""


class ZeroElement(AlgebraError):
    """The zero element was supplied where a nonzero one is required."""


class BadCut(AlgebraError):
    """A spectral cut point lies outside the admissible open interval, or
    no spectrum point lies above the rank cutoff to place the default one."""
