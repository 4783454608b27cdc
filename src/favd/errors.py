"""Exception hierarchy shared across the package, and the two file guards.

The CLI maps these onto exit codes: DataError -> 2, InfeasibleError -> 3.
Every file favd reads is read inside `reading`, and every file it writes is
written inside `writing`; each turns the ways a file can fail into one
DataError whose one-line message names the path.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
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
