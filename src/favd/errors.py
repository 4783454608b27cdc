"""The package's two exceptions, the two file guards, list files and CSV.

The CLI maps these onto exit codes: DataError -> 2, InfeasibleError -> 3.
Every file favd reads is opened by `reading`, and every file it writes by
`writing`, so these two alone decide the text format. Each turns the ways a
file can fail into one DataError whose one-line message names the path.
`writing` replaces a file only once its new text is whole. `iter_lines` is
the one list-file reader, holding one block of the file at a time, and
`csv_rows` and `write_csv` are the one CSV reader and writer; the writer
also takes rows that are CSV text already.
"""

from __future__ import annotations

import csv
import os
import stat
import sys
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path

BLOCK = 1 << 16  # characters a list file is read by


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
    other OSError, such as a directory. A byte that is not UTF-8 is reported at
    its offset in the file.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh
    except FileNotFoundError as exc:
        raise DataError(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8: {path} ({_in_file(path, exc)})") from exc
    except (ValueError, RecursionError) as exc:
        raise DataError(f"malformed {what} {path}: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"malformed CSV {path}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def _in_file(path, exc: UnicodeDecodeError) -> UnicodeDecodeError:
    """`exc` as decoding the file's bytes at once raises it, so that its position is the
    byte's file offset (a stream counts from the start of the chunk it decodes)."""
    try:
        with open(path, "rb") as fh:
            fh.read().decode("utf-8")
    except UnicodeDecodeError as again:
        return again
    except OSError:
        pass
    return exc


@contextmanager
def writing(path):
    """Create `path`'s parent directory, yield `path` open to write, map OSError to DataError.

    The text is UTF-8, and `\\n` is written as it is on every platform. It goes
    to a temporary file beside the target, which replaces the target only
    when the block ends without an exception; on any exception, an interrupt
    included, the temporary file is removed and the old file, or none, stays.
    A symlink keeps its link (its target is replaced), a replaced file keeps
    its permission bits, and a target that exists but is not a regular file
    (`/dev/null`, a FIFO) is written in place.
    """
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            mode = path.stat().st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with path.open("w", encoding="utf-8", newline="") as fh:
                yield fh
            return
        target = Path(os.path.realpath(path))
        temp = target.with_name(f".{target.name[:64]}.{os.urandom(6).hex()}.tmp")
        # 0o666 less the umask, as a new file gets; a replaced file keeps its bits below
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                yield fh
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            os.replace(temp, target)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def iter_lines(path, block: int = BLOCK) -> Iterator[str]:
    """Yield a list file's names, one per line in file order, less trailing whitespace and
    blank lines, reading `block` characters at a time.

    Lines end where `str.splitlines` ends them. A block's last line waits for
    the next block unless a line end follows it; a line longer than a block
    makes the next read as long as it. A `\\r\\n` split across two blocks
    ends its line at `\\r` and leaves a blank line, which is dropped.
    """
    with reading(path, "input file") as fh:
        rest = ""
        while text := fh.read(max(block, len(rest))):
            text = rest + text
            lines = text.splitlines()
            rest = lines.pop() if text.endswith(lines[-1]) else ""
            yield from filter(None, map(str.rstrip, lines))
        if rest := rest.rstrip():
            yield rest


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
