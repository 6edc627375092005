"""Exception and warning types shared across the package.

Each error's ``exit_code`` is the command-line exit status it maps to: 2 for
invalid parameters or config, 3 for numerical failures.
"""


class QFeedbackError(Exception):
    """Base class for all package errors."""
    exit_code = 3


class DimensionMismatch(QFeedbackError, ValueError):
    """Operands act on Hilbert spaces of different dimension."""
    exit_code = 2


class InvalidState(QFeedbackError, ValueError):
    """A matrix fails the density-matrix invariants (hermiticity, trace, positivity)."""
    exit_code = 2


class JumpFromDarkState(QFeedbackError):
    """A detection event was requested from a state that cannot emit."""


class PositivityViolation(QFeedbackError):
    """Evolution produced an eigenvalue below tolerance; dt too large or truncation too small."""


class DegenerateSteadyState(QFeedbackError):
    """The Liouvillian kernel is not one-dimensional."""


class TruncationWarning(UserWarning):
    """Population is leaking into the top Fock levels of a truncated mode."""


class UnstableLoop(QFeedbackError):
    """The feedback loop has a closed-loop pole in the right half plane."""


class MarginalStability(QFeedbackError):
    """The loop sits too close to the edge of stability to classify or to
    evaluate: |1 - L| < loop.CRITICAL_TOL at a requested omega
    (loop._closed_loop) or on a Sampled loop's Nyquist contour, or, in the
    closed form for a cascade of real poles and a delay, g within that
    tolerance of 1 or within that tolerance times |g_c| of the critical
    gain g_c, which is |1 - L| < CRITICAL_TOL at the crossing frequency."""


class NyquistUnresolved(QFeedbackError):
    """A Sampled loop's Nyquist contour kept its phase jumping between
    samples after every refinement, so its winding number is unknown. Loops
    of real poles never sample the contour."""


class DegenerateSplit(QFeedbackError):
    """No light reaches the in-loop detector (eta2 = 0) but feedback is requested."""
    exit_code = 2


class TooShort(QFeedbackError, ValueError):
    """Time series too short for the requested spectral estimate."""
    exit_code = 2


class DivergenceDetected(QFeedbackError):
    """Time-domain simulation diverged (misclassified stability)."""


class SemiclassicalInexpressible(QFeedbackError, ValueError):
    """Sub-shot-noise input cannot be represented by classical noise plus shot noise."""
    exit_code = 2


class UnstableMean(QFeedbackError):
    """Fed-back mean is not damped (k0 + lambda <= 0)."""


class DelayTooLarge(QFeedbackError, ValueError):
    """Short-delay correction requested outside its validity domain."""
    exit_code = 2


class UnphysicalBath(QFeedbackError, ValueError):
    """Squeezed-bath parameters violate |M|^2 <= N(N+1)."""
    exit_code = 2


class UnreachableSqueezing(QFeedbackError, ValueError):
    """Requested in-loop noise level below the detector-efficiency floor."""
    exit_code = 2


class ParseError(QFeedbackError, ValueError):
    """Config file could not be parsed."""
    exit_code = 2


class UnknownKey(QFeedbackError, ValueError):
    """Config file contains keys not recognized by the subcommand."""
    exit_code = 2
