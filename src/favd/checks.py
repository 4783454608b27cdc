"""Value checks for the CLI's options, model files and synth specs.

Each returns the value used or raises a one-line DataError. The option
checks at the end are the ones `cli.OPTIONS` names.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import DataError
from .rational import exact_fraction


def checked(key: str, check, value):
    """check(value), with a failure's message naming `key`."""
    try:
        return check(value)
    except DataError as exc:
        raise DataError(f"{key}: {exc}") from exc


def string(value) -> str:
    if not isinstance(value, str):
        raise DataError(f"must be a string, got {value!r}")
    return value


def boolean(value) -> bool:
    if not isinstance(value, bool):
        raise DataError(f"must be true or false, got {value!r}")
    return value


def list_of(check):
    """A check for a non-empty list whose items each pass `check`."""
    def check_list(value) -> list:
        if not (isinstance(value, list) and value):
            raise DataError(f"must be a non-empty list, got {value!r}")
        return [check(item) for item in value]
    return check_list


def integer(value, text: bool = False) -> int:
    """An int, not a bool or a float; with `text`, also its text, as a flag gives it."""
    try:
        if type(value) is int or text and isinstance(value, str):
            return int(value)
    except ValueError:
        pass
    raise DataError(f"must be an integer, got {value!r}")


def count(value, text: bool = False, most: int | None = None) -> int:
    """An integer of at least 1, and of at most `most` when given."""
    number = integer(value, text)
    if number < 1:
        raise DataError(f"must be >= 1, got {number}")
    if most is not None and number > most:
        raise DataError(f"must be at most {most:,}, got {number}")
    return number


def number(value, text: bool = False) -> int | Fraction:
    """A number a float can hold: an int as it is, a float or text as its exact Fraction."""
    try:
        if type(value) in (int, float) or text and isinstance(value, str):
            exact = value if type(value) is int else exact_fraction(value)
            float(exact)
            return exact
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise DataError(f"must be a finite number, got {value!r}")


# Option checks. Each takes the raw value, a flag's string or a config file's
# JSON value (None when a config file gives null), and returns the value used.

def path(value) -> str | None:
    return None if value is None else string(value)


def paths(value) -> list[str] | None:
    return None if value is None else list_of(string)(value)


flag_integer = partial(integer, text=True)
flag_count = partial(count, text=True)


def beta(value) -> int | Fraction:
    exact = number(value, text=True)
    if exact <= 0:
        raise DataError(f"must be positive, got {value!r}")
    return exact


def threshold_step(value) -> str:
    """A step in (0, 1], kept as written: reports record it that way."""
    if not 0 < number(value, text=True) <= 1:
        raise DataError(f"must lie in (0, 1], got {value!r}")
    return str(value)


def policy(value):
    from .ranking import MinScorePolicy
    return MinScorePolicy.parse(value)


def weights(value) -> tuple:
    from .ranking import Weight, default_weight_grid
    if value is None:
        return default_weight_grid()
    parsed = tuple(Weight.parse(part) for part in string(value).split(",") if part.strip())
    if not parsed or len(set(parsed)) < len(parsed):
        raise DataError(f"must name at least one PLUS-MINUS pair, none twice, got {value!r}")
    return parsed


def weight(value):
    from .ranking import Weight
    return Weight.parse(value) if value is not None and string(value) else None
