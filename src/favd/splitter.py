"""Conservative identifier splitting.

An identifier is cut only at explicit boundaries:

  * every underscore (the underscore itself is dropped),
  * a lowercase letter followed by an uppercase letter,
  * a letter followed by a digit, and a digit followed by a letter.

Nothing else splits, so compound lowercase words such as ``maxstrlen`` or
``readwrite`` stay whole, and all-caps prefixes (``LZWDecode``, ``LOADSparse``)
are not separated from the trailing lowercase run. Term case is preserved.
Characters that are neither letters, digits, nor underscores never introduce
a boundary.
"""

from __future__ import annotations


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
        # No uppercase letter and no digit: nothing inside can be a boundary.
        if segment.islower() and segment.isalpha():
            terms.append(segment)
            continue
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
