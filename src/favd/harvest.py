"""Heuristic extraction of function-definition names from C/C++ sources.

This is a lexical scan, not a parser. One regular expression finds every
comment and string/char literal, and each is blanked to spaces, keeping
its newlines and the literal's quotes, so offsets and line numbers do not
move. A second one then visits only the parentheses of what is left: an
identifier that directly precedes a parenthesis group at nesting depth 0
whose closing `)` is followed by `{` is taken as a function definition.
Call sites fail the `{` check, declarations end in `;`. K&R-style
definitions and macro-generated functions are known misses.
"""

from __future__ import annotations

import re
import string
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

# Reserved words are not identifiers; they also legitimately precede '('.
_KEYWORDS = frozenset(
    """if else for while do switch return sizeof goto case default
    break continue typedef new delete throw catch try using namespace
    alignof typeof decltype noexcept static_assert defined _Alignof
    _Generic _Static_assert""".split()
)
_SPACE = " \t\n\r"
_IDENTIFIER_CHARS = string.ascii_letters + string.digits + "_"

# In a literal a backslash escapes the next character, a newline too, and a
# backslash at the very end stays in the body. Unterminated comments and
# literals run to the end of the text.
_COMMENT_OR_LITERAL = re.compile(
    r"""//(?:[^\n\\]+|\\\n?)*             # line comment; backslash-newline continues it
      | /\*.*?(?:\*/|\Z)                 # block comment
      | "((?:[^"\\]+|\\.?)*)("?)         # string: body, closing quote
      | '((?:[^'\\]+|\\.?)*)('?)         # char: body, closing quote
    """,
    re.DOTALL | re.VERBOSE,
)
_PAREN = re.compile(r"[()]")
_BRACE_NEXT = re.compile(r"[ \t\n\r]*\{")


class HarvestedName(NamedTuple):
    name: str
    file: str
    line: int


def _blank(text: str) -> str:
    """Spaces in place of every character but newlines."""
    if "\n" not in text:
        return " " * len(text)
    return "\n".join(" " * len(part) for part in text.split("\n"))


def _blank_match(match: re.Match) -> str:
    string_body, string_end, char_body, char_end = match.group(1, 2, 3, 4)
    if string_body is not None:
        return '"' + _blank(string_body) + string_end
    if char_body is not None:
        return "'" + _blank(char_body) + char_end
    return _blank(match[0])


def strip_comments_and_literals(text: str) -> str:
    """Blank comments and string/char literal bodies, preserving newlines."""
    return _COMMENT_OR_LITERAL.sub(_blank_match, text)


def _identifier_before(text: str, index: int) -> tuple[str, int]:
    """Identifier immediately preceding text[index], and its start offset."""
    j = index
    while j and text[j - 1] in _SPACE:
        j -= 1
    end = j
    while j and text[j - 1] in _IDENTIFIER_CHARS:
        j -= 1
    name = text[j:end]
    if not name or name[0].isdigit():
        return "", -1
    return name, j


def harvest_text(text: str, file_label: str) -> list[HarvestedName]:
    code = strip_comments_and_literals(text)
    found: list[HarvestedName] = []
    depth = 0
    line, counted_to = 1, 0  # line of offset counted_to; names come in offset order
    for paren in _PAREN.finditer(code):
        if paren[0] == "(":
            if depth == 0:
                opened = paren.start()
            depth += 1
        elif depth:
            depth -= 1
            if depth == 0 and _BRACE_NEXT.match(code, paren.end()):
                name, start = _identifier_before(code, opened)
                if name and name not in _KEYWORDS:
                    line += code.count("\n", counted_to, start)
                    counted_to = start
                    found.append(HarvestedName(name=name, file=file_label, line=line))
    return found


def harvest(paths: list[str | Path]) -> tuple[list[HarvestedName], list[str]]:
    """Scan files and return (names ordered by (file, line), warnings).

    Unreadable files are skipped, one warning string per skipped file, and
    bytes that are not UTF-8 are replaced: sources are read here, not through
    `errors.reading`, which would end the scan at the first bad file.
    """
    names: list[HarvestedName] = []
    warnings: list[str] = []
    for path in paths:
        path = Path(path)
        try:
            text = path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            warnings.append(f"skipped {path}: {exc}")
            continue
        names.extend(harvest_text(text, str(path)))
    names.sort(key=itemgetter(1, 2, 0))  # file, line, name
    return names, warnings
