"""Conservative identifier splitting.

An identifier is cut only at explicit boundaries: every underscore (which is
dropped), a lowercase letter followed by an uppercase one, and a letter
followed by a digit or a digit by a letter. Nothing else splits, so compound
lowercase words (``maxstrlen``) stay whole, all-caps prefixes (``LZWDecode``)
keep their trailing lowercase run, and other characters (``$``) never cut.
Term case is preserved.

Each underscore-free segment takes one of three exact paths, by its own
characters. Lowercase letters alone hold no boundary: one term. ASCII letters
and digits go through ``[A-Z]*[a-z]+|[A-Z]+|[0-9]+``, whose matches step only
upper->upper, upper->lower and lower->lower and end where a boundary starts.
Any other segment tests each character with Unicode's own case and class,
the one path that is exact for non-ASCII letters and digits and for symbols.
"""

from __future__ import annotations

import re

_ascii_terms = re.compile(r"[A-Z]*[a-z]+|[A-Z]+|[0-9]+").findall


def split(identifier: str) -> list[str]:
    """Split an identifier into its terms, in order.

    An identifier made only of underscores yields an empty list. Terms are
    never empty strings.
    """
    if not identifier:
        raise ValueError("identifier must be non-empty")
    terms: list[str] = []
    for segment in identifier.split("_"):
        if not segment:
            continue
        if segment.islower() and segment.isalpha():
            terms.append(segment)
        elif segment.isascii() and segment.isalnum():
            terms += _ascii_terms(segment)
        else:  # the boundary tests one character at a time
            start = 0
            prev = ""
            for i, ch in enumerate(segment):
                if (
                    (prev.islower() and ch.isupper())
                    or (prev.isalpha() and ch.isdigit())
                    or (prev.isdigit() and ch.isalpha())
                ):
                    terms.append(segment[start:i])
                    start = i
                prev = ch
            terms.append(segment[start:])
    return terms
