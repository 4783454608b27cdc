"""Exact rational helpers.

All rates (percentages, thresholds, F-scores) are kept as `fractions.Fraction`
internally so that strict comparisons and equality checks are exact and
bit-reproducible. Floats enter only at the formatting boundary.
"""

from __future__ import annotations

from fractions import Fraction

# A float's repr has a decimal exponent in [-324, 308]; a far larger one
# would make Fraction build a huge power of ten, taking seconds or forever.
MAX_EXPONENT = 1000


def parse_fraction(text: str) -> Fraction:
    """Fraction(text); an exponent beyond MAX_EXPONENT either way is a ValueError."""
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > MAX_EXPONENT:  # int() rejects only what Fraction would
        raise ValueError(f"decimal exponent beyond {MAX_EXPONENT}")
    return Fraction(text)


def exact_fraction(value) -> Fraction:
    """Convert a number or its text to a Fraction, treating floats as their decimal repr.

    `exact_fraction(0.05)` is 1/20, not the binary double nearest 0.05. This
    keeps thresholds read back from JSON identical to the ones written out.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (float, str)):
        return parse_fraction(str(value))
    return Fraction(value)


def format_rate(value, places: int = 3) -> float:
    """Round a rational rate for reports; reports match 3-decimal table style."""
    return round(float(value), places)
