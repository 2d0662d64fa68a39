"""Exception types raised across the package."""

from __future__ import annotations


class KrausBlocksError(Exception):
    """Base class for every error raised by this library."""


class DimensionMismatch(KrausBlocksError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(KrausBlocksError):
    """Matrix fails the Hermiticity check."""


class NotOrthonormal(KrausBlocksError):
    """Column set fails the orthonormality check."""


class NotUnitary(KrausBlocksError):
    """Matrix fails the unitarity check."""


class NotNormalized(KrausBlocksError):
    """Vector is not a unit vector."""


class NotAProjector(KrausBlocksError):
    """Matrix is not an orthogonal projector."""


class NotPSD(KrausBlocksError):
    """Matrix is not positive semidefinite."""


class NotADensityMatrix(KrausBlocksError):
    """Matrix is not a valid density matrix (PSD, unit trace)."""


class InvalidParameter(KrausBlocksError):
    """Parameter outside its documented range."""


class InvalidAlpha(InvalidParameter):
    """Renyi order that is below 1 or not finite."""


class InvalidMeasurement(KrausBlocksError):
    """Measurement elements violate their completeness/positivity constraints."""


class ValidationError(KrausBlocksError):
    """Kraus operators do not form a unital trace-preserving channel.

    Carries the measured residuals in ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class NotFixed(KrausBlocksError):
    """Operator is not a fixed point of the channel."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NotInvariant(KrausBlocksError):
    """Subspace is not invariant under the channel."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class ToleranceFailure(KrausBlocksError):
    """A certified numerical step failed at the configured tolerances."""


class MultisetMismatch(KrausBlocksError):
    """Matched decompositions disagree on block counts or dimensions."""


class NoViolation(KrausBlocksError):
    """Requested a violation witness for an operator that is preserved."""


class EmptyBlockList(KrausBlocksError):
    """Block-combination formulas need at least one block value."""


class NonConvergence(KrausBlocksError):
    """Iterative optimizer stalled above its tolerance."""


class ParseError(KrausBlocksError):
    """Input document is malformed.

    ``path`` points at the offending field, e.g. ``$.kraus[2][5]``.
    """

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
