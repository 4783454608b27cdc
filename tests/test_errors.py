"""The file guards: list files read a block at a time, exact decode offsets, atomic writes."""

import codecs
import os
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from favd.errors import BLOCK, DataError, csv_rows, iter_lines, write_csv, writing

SEPARATORS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# Separators, whitespace that ends no line (\x1f, \t, space), a byte-order mark
# at any place, and a few name characters, so blank and whitespace-only lines occur.
line_text = st.lists(st.sampled_from([*SEPARATORS, " ", "\t", "\x1f", "\ufeff", "a", "b_", "\xe9"]),
                     max_size=40).map("".join)


def reference(data: bytes) -> list[str]:
    """What a whole read gives: the text less a leading BOM, split, stripped, blank lines out."""
    return [line.rstrip() for line in data.decode("utf-8-sig").splitlines() if line.rstrip()]


@settings(max_examples=300, deadline=None)
@given(text=line_text, bom=st.booleans())
@example(text="a\r\nb", bom=False)
@example(text="\r\n\r\n", bom=True)
def test_block_reader_equals_splitlines_at_every_block_size(text, bom):
    data = (codecs.BOM_UTF8 if bom else b"") + text.encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "names.txt"
        path.write_bytes(data)
        expected = reference(data)
        for block in (1, 2, 3, 7, BLOCK):
            assert list(iter_lines(path, block=block)) == expected, block


def test_a_crlf_split_across_two_blocks_ends_one_line(tmp_path):
    path = tmp_path / "names.txt"
    path.write_bytes(b"a" * (BLOCK - 1) + b"\r\nb\r\n")
    assert list(iter_lines(path)) == ["a" * (BLOCK - 1), "b"]


def test_a_line_longer_than_many_blocks_is_read_whole(tmp_path):
    path = tmp_path / "names.txt"
    path.write_text("x" * (10 * BLOCK + 3) + "\ny\n")
    assert list(iter_lines(path)) == ["x" * (10 * BLOCK + 3), "y"]


# The bad byte's file offset, past the first block of the reader and of the
# stream's own chunks, with and without a byte-order mark before it.
@pytest.mark.parametrize("bom", [b"", codecs.BOM_UTF8], ids=["plain", "bom"])
def test_a_bad_byte_past_the_first_block_is_reported_at_its_file_offset(tmp_path, bom):
    path = tmp_path / "names.txt"
    head = bom + b"name_x\n" * 50_000
    path.write_bytes(head + b"bad\xffname\n" + b"tail\n" * 10)
    with pytest.raises(DataError, match=rf"position {len(head) + 3}: invalid start byte"):
        list(iter_lines(path))


def test_a_bad_byte_in_a_csv_is_reported_at_its_file_offset(tmp_path):
    path = tmp_path / "names.csv"
    head = b"name,label\n" + b"read_file,vulnerable\n" * 4000
    path.write_bytes(head + b"bad\xc3(,benign\n")
    with pytest.raises(DataError, match=rf"position {len(head) + 3}: invalid continuation byte"):
        list(csv_rows(path, "input file"))


def failing_rows(exc: BaseException, good: int = 1000):
    yield from (["name", i] for i in range(good))
    raise exc


@pytest.mark.parametrize("exc", [DataError("bad name"), KeyboardInterrupt()],
                         ids=["data-error", "interrupt"])
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_a_write_that_fails_leaves_the_old_file_or_none(tmp_path, exc, existing):
    out = tmp_path / "out.csv"
    if existing:
        out.write_text("old\n")
    with pytest.raises(type(exc)):
        write_csv(out, ["name", "n"], failing_rows(exc))
    assert sorted(os.listdir(tmp_path)) == (["out.csv"] if existing else [])
    if existing:
        assert out.read_text() == "old\n"


def test_a_replaced_file_keeps_its_permission_bits_and_a_new_one_gets_the_umasks(tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    write_csv(kept, ["name"], [["a"]])
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text() == "name\na\n"
    umask = os.umask(0o022)
    try:
        write_csv(tmp_path / "new.csv", ["name"], [["a"]])
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "new.csv").stat().st_mode) == 0o644


@pytest.mark.parametrize("dangling", [False, True], ids=["to-a-file", "dangling"])
def test_a_symlinked_target_keeps_its_link(tmp_path, dangling):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "out.csv"
    if not dangling:
        target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_csv(link, ["name"], [["a"]])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text() == "name\na\n"
    assert sorted(os.listdir(tmp_path / "real")) == ["out.csv"]


def test_a_fifo_is_written_in_place(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()))
    reader.start()
    with writing(fifo) as fh:
        fh.write("through the pipe\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["through the pipe\n"]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(os.listdir(tmp_path)) == ["pipe"]


def test_dev_null_is_written_in_place():
    before = os.stat(os.devnull)
    write_csv(os.devnull, ["name"], [["a"]])
    after = os.stat(os.devnull)
    assert stat.S_ISCHR(after.st_mode) and after.st_ino == before.st_ino
