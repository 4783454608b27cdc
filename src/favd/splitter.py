"""Conservative identifier splitting.

An identifier is cut only at explicit boundaries:

  * every underscore (the underscore itself is dropped),
  * a lowercase letter followed by an uppercase letter,
  * a letter followed by a digit, and a digit followed by a letter.

Nothing else splits, so compound lowercase words such as ``maxstrlen`` or
``readwrite`` stay whole, and all-caps prefixes (``LZWDecode``, ``LOADSparse``)
are not separated from the trailing lowercase run. Term case is preserved
unless the caller asks for folding. Characters that are neither letters,
digits, nor underscores never introduce a boundary.
"""

from __future__ import annotations


def _boundary(prev: str, cur: str) -> bool:
    if prev.islower() and cur.isupper():
        return True
    if prev.isalpha() and cur.isdigit():
        return True
    if prev.isdigit() and cur.isalpha():
        return True
    return False


def split(identifier: str, fold_case: bool = False) -> list[str]:
    """Split an identifier into its terms, in order.

    An identifier made only of underscores yields an empty list. Terms are
    never empty strings.
    """
    if not identifier:
        raise ValueError("identifier must be non-empty")
    terms: list[str] = []
    current: list[str] = []
    prev = ""
    for ch in identifier:
        if ch == "_":
            if current:
                terms.append("".join(current))
                current = []
            prev = ""
            continue
        if current and _boundary(prev, ch):
            terms.append("".join(current))
            current = []
        current.append(ch)
        prev = ch
    if current:
        terms.append("".join(current))
    if fold_case:
        terms = [t.lower() for t in terms]
    return terms

