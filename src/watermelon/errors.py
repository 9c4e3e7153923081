"""Exception types shared across the toolkit."""


class WatermelonError(Exception):
    """Base class for all toolkit errors."""


class ParityError(WatermelonError):
    """Space-time point violates the period-2 lattice parity."""


class PoleError(WatermelonError):
    """A denominator Pochhammer factor vanished before the series terminated."""


class DomainError(WatermelonError):
    """Arguments outside the mathematical domain of the operation."""


class UnreachableState(WatermelonError):
    """Conditioning event has probability zero."""


class EmptyBridge(WatermelonError):
    """No non-intersecting trajectory connects the prescribed endpoints."""


class BudgetExceeded(WatermelonError):
    """Requested exhaustive computation exceeds the configured budget."""


class SpecMismatch(WatermelonError):
    """Two trajectories that must share a bridge specification do not."""
