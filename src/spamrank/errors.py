"""Exception types, and the base of the plain record classes, shared
across the package."""


class SlotRecord:
    """Base of the package's plain record classes (verdicts, records,
    clusters, configs): == and repr over the fields a subclass names in
    __slots__, in that order, as a dataclass would write them. Each
    subclass writes its own __init__. Defining __eq__ leaves it unhashable,
    like a dataclass that is not frozen."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SpamRankError(Exception):
    """Base class for every error raised by this package."""


class InvalidAddressError(SpamRankError):
    """An address could not be normalized into an identity."""


class FormatError(SpamRankError):
    """A stream does not look like the declared wire format."""


class ConfigError(SpamRankError):
    """A parameter is outside its allowed range or inconsistent."""


class DomainError(SpamRankError):
    """A numeric input lies outside the function's domain."""


class UnknownUserError(SpamRankError):
    """An operation referenced a user id with no registered vector."""


class NotAMemberError(SpamRankError):
    """A membership operation referenced a user outside the cluster."""


class InternalStateError(SpamRankError):
    """An internal invariant was violated; state is corrupt."""


class NotComputableError(SpamRankError):
    """A metric is undefined on the given input."""
