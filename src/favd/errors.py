"""Exception hierarchy shared across the package, the two file guards, and CSV.

The CLI maps these onto exit codes: DataError -> 2, InfeasibleError -> 3.
Every file favd reads is read inside `reading`, and every file it writes is
written inside `writing`; each turns the ways a file can fail into one
DataError whose one-line message names the path. `csv_rows` and `write_csv`
are the one CSV reader and writer.
"""

from __future__ import annotations

import csv
import sys
from contextlib import ExitStack, contextmanager
from itertools import chain
from pathlib import Path


class FavdError(Exception):
    """Base class for all favd-specific failures."""


class DataError(FavdError):
    """Input data is missing, malformed, or unusable."""


class InfeasibleError(FavdError):
    """A requested protocol cannot be carried out on the given data."""


@contextmanager
def reading(path, what: str):
    """Map a failed read of `path` (`what`, e.g. "model file") to a DataError.

    Mapped: a missing file, bytes that are not UTF-8, malformed or too deeply
    nested JSON (or an integer in it too long to read), a malformed CSV, a
    path holding a null byte, and any other OSError, such as a directory.
    """
    try:
        yield
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
    """Create `path`'s parent directory, yield `path` as a Path, map OSError to DataError."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        yield path
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def csv_rows(path, what: str, key: str = "name"):
    """Yield (file line, stripped fields) for each row of CSV `path` with a non-blank field.

    The line is where the row ends, as a quoted field may span lines. The
    first field, the row's `key`, must be non-empty and fit on one line.
    """
    path = Path(path)
    with reading(path, what), path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for row in reader:
            fields = [field.strip() for field in row]
            if any(fields):
                if fields[0].splitlines() != [fields[0]]:  # a list file could not hold it
                    problem = "holds a line break" if fields[0] else "is empty"
                    raise DataError(f"{path}:{reader.line_num}: {key} {problem}")
                yield reader.line_num, fields


def write_csv(out, header: list[str], rows) -> None:
    """Write `header`, then `rows`, as CSV to the file `out`, or to stdout for None or '-'."""
    with ExitStack() as stack:
        fh = sys.stdout
        if out not in (None, "-"):
            path = stack.enter_context(writing(out))
            fh = stack.enter_context(path.open("w", newline="", encoding="utf-8"))
        csv.writer(fh, lineterminator="\n").writerows(chain([header], rows))
