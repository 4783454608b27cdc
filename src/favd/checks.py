"""Value checks for the CLI's options, model files and synth specs.

Each returns the value used or raises a one-line DataError.
"""

from __future__ import annotations

from fractions import Fraction

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
