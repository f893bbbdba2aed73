"""Exception types shared across the package."""


class PhaseSpaceError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PhaseSpaceError, ValueError):
    """An argument lies outside the supported domain."""


class QuadratureError(PhaseSpaceError, RuntimeError):
    """A quadrature did not reach the requested tolerance."""


class DegenerateStateError(PhaseSpaceError, ValueError):
    """A state has (near) zero norm or an indicator denominator vanished."""


class UnsupportedStateError(PhaseSpaceError, ValueError):
    """The operation is undefined for this kind of state."""


class GridCoverageError(PhaseSpaceError, ValueError):
    """The evaluation grid does not cover the state's phase-space support."""


class ResourceBudgetError(PhaseSpaceError, RuntimeError):
    """A computation would exceed the configured memory/point budget."""


class StateFormatError(PhaseSpaceError, ValueError):
    """A state description (JSON) could not be parsed."""
