"""Error types shared by the whole package.

Three failure modes are distinguished so the command line tool can map them
onto distinct exit codes: bad input values, violated call preconditions, and
requests that exceed a configured size cap.  `as_ints` is the strict
integer conversion that every parser uses, so no float is silently
truncated and no bool is read as a number; `as_permutation` builds on it.
`check_cap` raises every CapacityError, so each refusal reads
"<what> <size> exceeds the cap <cap>", or "<what> of <n> digits exceeds
the cap <cap>" for a size of more than 30 digits.
"""

import operator
from typing import Iterable


class SpecialFormsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SpecialFormsError):
    """An input value is outside the domain of the operation."""


class PreconditionError(SpecialFormsError):
    """A structural precondition on the input objects does not hold."""


class CapacityError(SpecialFormsError):
    """The requested computation exceeds a configured size cap."""


def as_ints(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints, raising DomainError for any non-integer such as 1.5.

    Python and numpy integers pass; floats and strings do not, even when
    integral, because converting them would accept truncated input.  Nor do
    bools, so that JSON `true` is not read as 1.
    """
    values = tuple(values)
    if bool in map(type, values):
        raise DomainError(f"{what} must be integers, got a boolean in {values}")
    try:
        return tuple(map(operator.index, values))
    except TypeError as exc:
        raise DomainError(f"{what} must be integers: {exc}") from exc


def as_permutation(values: Iterable, n: int, what: str) -> tuple[int, ...]:
    """The values as ints forming a permutation of 1..n, else DomainError."""
    perm = as_ints(values, what)
    if sorted(perm) != list(range(1, n + 1)):
        raise DomainError(f"{what} {perm} are not a permutation of 1..{n}")
    return perm


def check_cap(size: int, cap: int, what: str) -> None:
    """Raise CapacityError when `size` exceeds `cap`.

    A size of more than 30 digits is given by its digit count: Python
    refuses to convert an int of more than 4,300 digits to a string."""
    if size > cap:
        if size < 10**30:
            raise CapacityError(f"{what} {size} exceeds the cap {cap}")
        exponent = (size.bit_length() - 1) * 30102 // 100000  # <= floor(log10(size))
        while size >= 10 ** (exponent + 1):
            exponent += 1
        raise CapacityError(f"{what} of {exponent + 1} digits exceeds the cap {cap}")
