"""Exception taxonomy shared across the package.

Numerical failures (quadrature, descent) and verification failures are kept
distinct so the CLI can map them to different exit codes.
"""


class WallscaleError(Exception):
    """Base class for all package-specific errors."""


class QuadratureError(WallscaleError):
    """A quadrature did not meet its error contract."""


class SubdivisionLimitError(QuadratureError):
    """The adaptive subdivision budget was exhausted."""


class NonFiniteIntegrandError(QuadratureError):
    """The integrand produced NaN or infinity at an evaluation node."""


class TailNonconvergenceError(QuadratureError):
    """The semi-infinite tail estimate stopped shrinking under refinement."""


class StallError(WallscaleError):
    """Backtracking line search could not find a decrease step."""


class VerificationError(WallscaleError):
    """A verified inequality was violated beyond the numerical budget."""
