"""The package's two exceptions, the two file guards, list files and CSV.

The CLI maps these onto exit codes: DataError -> 2, InfeasibleError -> 3.
Every file favd reads is opened by `reading`, and every file it writes by
`writing`, so these two alone decide the text format. Each turns the ways a
file can fail into one DataError whose one-line message names the path.
`read_lines` is the one list-file reader, and `csv_rows` and `write_csv`
are the one CSV reader and writer; the writer also takes rows that are CSV
text already.
"""

from __future__ import annotations

import csv
import sys
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path


class DataError(Exception):
    """Input data is missing, malformed, or unusable."""


class InfeasibleError(Exception):
    """A requested protocol cannot be carried out on the given data."""


@contextmanager
def reading(path, what: str):
    """Yield `path` open to read; map a failed read (`what`, e.g. "model file") to a DataError.

    The text is UTF-8 less a leading byte-order mark, its line ends as they
    are; `fh.buffer` reads the bytes on disk. Mapped: a missing file, bytes
    that are not UTF-8, malformed or too deeply nested JSON (or an integer in
    it too long to read), a malformed CSV, a path holding a null byte, and any
    other OSError, such as a directory.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8: {path} ({exc})") from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed {what} {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV {path}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


@contextmanager
def writing(path):
    """Create `path`'s parent directory, yield `path` open to write, map OSError to DataError.

    The text is UTF-8, and `\\n` is written as it is on every platform.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def read_lines(path) -> list[str]:
    """A list file's names, one per line in file order, less trailing whitespace and blank
    lines. They are stripped in place, so a long list is held once, not twice."""
    with reading(path, "input file") as fh:
        lines, kept = fh.read().splitlines(), 0
    for line in filter(None, map(str.rstrip, lines)):
        lines[kept] = line
        kept += 1
    del lines[kept:]
    return lines


def csv_rows(path, what: str, key: str = "name"):
    """Yield (file line, stripped fields) for each row of CSV `path` with a non-blank field.

    The line is where the row ends, as a quoted field may span lines. The
    first field, the row's `key`, must be non-empty and fit on one line.
    """
    with reading(path, what) as fh:
        reader = csv.reader(fh)
        for row in reader:
            fields = [field.strip() for field in row]
            if any(fields):
                if fields[0].splitlines() != [fields[0]]:  # a list file could not hold it
                    problem = "holds a line break" if fields[0] else "is empty"
                    raise DataError(f"{path}:{reader.line_num}: {key} {problem}")
                yield reader.line_num, fields


def write_csv(out, header: list[str], rows=(), text=()) -> None:
    """Write `header` and `rows` as CSV, then `text`, rows already written as CSV lines,
    to the file `out`, or to stdout for None or '-'."""
    with nullcontext(sys.stdout) if out in (None, "-") else writing(out) as fh:
        csv.writer(fh, lineterminator="\n").writerows(chain([header], rows))
        fh.writelines(text)
