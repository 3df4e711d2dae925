"""Exception hierarchy.

``InputError`` covers everything a caller can fix (bad data, bad
dimensions, bad flags); the CLI maps it to exit code 2.  ``NumericalError``
covers internal numerical failures (exit code 3).
"""


class ConvStatError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ConvStatError):
    """Invalid input supplied by the caller."""


class NumericalError(ConvStatError):
    """A numerical routine failed to produce a reliable result."""


class InvalidPMV(InputError):
    """Vector is not a probability mass vector."""


class EmptySample(InputError):
    """A sample set contained no observations."""


class SupportViolation(InputError):
    """An observation lies outside the declared support."""


class EmptyProduct(InputError):
    """Convolution of an empty sequence of PMVs was requested."""


class ZeroInput(InputError):
    """A polynomial operation received the zero polynomial."""


class NeedTwoVariables(InputError):
    """At least two variables are required."""


class DimensionMismatch(InputError):
    """Vector or matrix dimensions are incompatible."""


class NotSymmetric(InputError):
    """Matrix is not symmetric within tolerance."""


class RankOutOfRange(InputError):
    """Requested rank exceeds what the matrix supports."""


class DomainError(InputError):
    """Argument outside the mathematical domain of a function."""


class EmptySizes(InputError):
    """An empty sequence of sample sizes was supplied."""


class DegenerateVariable(InputError):
    """A point-mass PMV was used where a non-degenerate one is required."""


class NotPaired(InputError):
    """Paired data must be rectangular with at least two rows."""


class LatticeViolation(InputError):
    """An observation does not lie on the declared lattice."""


class SupportMismatch(InputError):
    """Hypothesized PMV dimension does not match the data support."""


class ZeroExpected(InputError):
    """An expected cell count of zero makes the statistic undefined."""


class ModelDegenerate(InputError):
    """Simulation model parameters produce an unusable distribution."""


class NoConvergence(NumericalError):
    """An iterative numerical routine (the eigensolver) did not converge."""
