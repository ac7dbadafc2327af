"""Exception hierarchy.

Two broad categories matter for the CLI exit codes: InputError means the
caller handed us something malformed or out of range (exit 2), while
ViolationError means a mathematical consistency check failed on valid
inputs (exit 1) -- the latter should never happen unless there is a bug.
"""


class CayleyError(Exception):
    pass


class InputError(CayleyError):
    """Malformed or out-of-range input."""


class ViolationError(CayleyError):
    """A proved statement failed to hold; indicates a bug or bad data."""


class NotLatin(InputError):
    pass


class NoIdentity(InputError):
    pass


class NotAssociative(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class InvalidPermutation(InputError):
    pass


class OrderTooLarge(InputError):
    pass


class OrderTooSmall(InputError):
    pass


class NotPrime(InputError):
    pass


class MTooSmall(InputError):
    pass


class UnsupportedM(InputError):
    pass


class NotPCycle(InputError):
    """A modified row is not a single p-cycle; the candidate is rejected.

    Only the slow complete_from_row raises it: the pattern search decides
    completion by search._piece_order and rejects nothing."""


class NuUndefinedForPrime(InputError):
    pass


class HypothesisNotMet(InputError):
    pass


class InconsistentFactorizations(ViolationError):
    pass
