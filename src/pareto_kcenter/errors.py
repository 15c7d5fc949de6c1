"""Exception types shared across the package."""


class EmptyInput(ValueError):
    """An operation that needs at least one point received none."""


class RankOutOfRange(ValueError):
    """Requested selection rank is outside [1, h*h]."""


class DegenerateSpan(ValueError):
    """Bisector search needs two distinct anchor points."""


class InvalidEpsilon(ValueError):
    """Approximation quality parameter must lie in (0, 1)."""


class NotFound(ValueError):
    """Monotone search over sorted arrays found no qualifying value."""


class FrozenRecord(AttributeError):
    """A record's attributes cannot be assigned or deleted."""


class InternalInvariantViolation(AssertionError):
    """A structural invariant the algorithms rely on was broken."""
