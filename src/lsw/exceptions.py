"""Exception types shared across the package."""


class LswError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LswError, ValueError):
    """A configuration or argument failed validation (also a ValueError)."""


class DimensionMismatchError(LswError):
    """Operands act on incompatible spaces."""


class UnknownSymbolError(LswError):
    """An expression refers to a name missing from the symbol table."""

    def __init__(self, name, position=None):
        self.name = name
        self.position = position
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown symbol {name!r}{where}")


class ExprSyntaxError(LswError):
    """Malformed operator expression; carries the offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (position {position})")


class DefectiveOperatorError(LswError):
    """Eigenvector matrix too ill-conditioned for a biorthonormal system."""


class EmptySlowSpaceError(LswError):
    """No eigenvalue classified as zero; not a trace-preserving generator?"""


class OrderUnavailableError(LswError):
    """A perturbative order beyond the computed series was requested."""


class DegenerateSteadyStateError(LswError):
    """The zero eigenvalue of the generator is not simple."""


class SingularBlochMatrixError(LswError):
    """Mean-deviation evolution matrix is not strictly stable/invertible."""


class NotPositiveError(LswError):
    """A matrix required to be positive semidefinite is not."""


class MixedChargeError(LswError):
    """An eigenvector spans more than one coherence order of the declared charge."""


class NonProductSlowSpaceError(LswError):
    """Slow space does not factor as (fixed state) x (subsystem operators)."""


class ToleranceNotMetError(LswError):
    """A computation was refused as too stiff or produced a non-finite result."""
