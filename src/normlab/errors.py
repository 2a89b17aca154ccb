"""Exception types shared across the package."""


class NormlabError(Exception):
    """Base class for all errors raised by normlab."""


class PointOutOfRange(NormlabError):
    pass


class DuplicatePoint(NormlabError):
    pass


class DegreeMismatch(NormlabError):
    pass


class EmptyDegree(NormlabError):
    pass


class OrderTooLarge(NormlabError):
    """An operation needed to enumerate more elements than the active bound allows."""


class InvariantViolated(NormlabError):
    """A computed result failed the check that guards it: a fault in normlab,
    not in its input."""


class AmbientMismatch(NormlabError):
    pass


class NotASubgroup(NormlabError):
    pass


class NotNormal(NormlabError):
    pass


class IndexTooLarge(OrderTooLarge):
    """A coset action needed more points than the active index bound allows."""


class InvalidPrime(NormlabError):
    pass


class NotNilpotent(NormlabError):
    pass


class NotSolvable(NormlabError):
    pass


class NotPGroup(NormlabError):
    pass


class DoesNotNormalize(NormlabError):
    pass


class UnknownTheorem(NormlabError):
    pass


class InvalidParameter(NormlabError):
    pass


class NotPrime(InvalidParameter):
    pass


class ParseError(NormlabError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SubgroupNotContained(NormlabError):
    pass
