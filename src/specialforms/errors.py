"""Error types shared by the whole package, and the one reader of each input rule.

Three failure modes are distinguished so the command line tool can map them
onto distinct exit codes: bad input values, violated call preconditions, and
requests that exceed a configured size cap.  Constructors and entry points
check their inputs through the readers here: `as_ints` (no float is
truncated, no bool read as 1, and an optional bound), `as_signs`,
`as_subset`, `as_factors`, `as_permutation` and `malformed` for `from_dict`.
`check_cap` raises every CapacityError, as "<what> <size> exceeds the cap
<cap>", or "<what> of <n> digits exceeds the cap <cap>" above 30 digits.
Producers whose own inputs guarantee every invariant build through
`unchecked` instead, so nothing the library builds is checked twice.
"""

import contextlib
import math
import operator
from typing import Iterable, Optional


class SpecialFormsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SpecialFormsError):
    """An input value is outside the domain of the operation."""


class PreconditionError(SpecialFormsError):
    """A structural precondition on the input objects does not hold."""


class CapacityError(SpecialFormsError):
    """The requested computation exceeds a configured size cap."""


def as_ints(
    values: Iterable, what: str, low: Optional[int] = None, high: Optional[int] = None
) -> tuple[int, ...]:
    """The values as ints, raising DomainError for any non-integer such as 1.5,
    and, given `low` (and `high`), for any value outside [low, high]:
    "<what> must be >= <low>, got <x>" or "must lie in [<low>, <high>]".

    Python and numpy integers pass; floats and strings do not, even when
    integral, because converting them would accept truncated input.  Nor do
    bools, so that JSON `true` is not read as 1.
    """
    values = tuple(values)
    if bool in map(type, values):
        raise DomainError(f"{what} must be integers, got a boolean in {values}")
    try:
        ints = tuple(map(operator.index, values))
    except TypeError as exc:
        raise DomainError(f"{what} must be integers: {exc}") from exc
    for x in ints if low is not None else ():
        if x < low or (high is not None and x > high):
            rule = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
            raise DomainError(f"{what} must {rule}, got {x}")
    return ints


def as_signs(values: Iterable, what: str) -> tuple[int, ...]:
    """The values as ints, each +1 or -1, else DomainError."""
    signs = as_ints(values, what)
    for s in signs:
        if s != 1 and s != -1:
            raise DomainError(f"{what} must be +1 or -1, got {s}")
    return signs


def as_subset(values: Iterable, what: str, n: Optional[int] = None) -> tuple[int, ...]:
    """The values as a nonempty strictly increasing tuple of ints >= 1, and
    <= n when n is given, else DomainError."""
    idx, top = as_ints(values, what), math.inf if n is None else n
    if not (idx and 1 <= idx[0] and idx[-1] <= top and all(map(operator.lt, idx, idx[1:]))):
        span = "the integers >= 1" if n is None else f"1..{n}"
        raise DomainError(f"{what} {idx} are not a nonempty increasing subset of {span}")
    return idx


def as_factors(values: Iterable, cap: int) -> tuple[int, ...]:
    """The values, in order, as a nonempty tuple of ints >= 2 whose product,
    the group order, is at most `cap` (CapacityError), else DomainError."""
    factors = as_ints(values, "factors", low=2)
    if not factors:
        raise DomainError("a factorization needs at least one factor")
    check_cap(math.prod(factors), cap, "group order")
    return factors


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


@contextlib.contextmanager
def malformed(what: str):
    """Raise DomainError("malformed <what>: ...") for a missing key or a value
    of the wrong shape met in the block, which reads a `from_dict` input."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {what}: {exc}") from exc


def unchecked(cls, **fields):
    """The frozen dataclass `cls` with these fields, already in the normal form
    its checks give, built without `__post_init__`.  Fields are set one by one,
    as `__init__` does; an update of `__dict__` would add a dict per object."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
