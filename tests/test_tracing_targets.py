"""The benchmark's tracer wraps favd functions by name; each must still exist and be called.

`bench/run.py --trace 1` looks up every `TARGETS` name with `getattr`, so a
renamed or deleted function breaks traced benchmark runs, and a function that
the commands stop calling leaves its per-layer metric reading 0. `testpaths`
collects `bench/test_bench.py` with these; they check what it does not, every
traced name against the commands that call it.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_bound_in_its_module():
    tracing = _tracing()
    missing = [
        f"favd.{layer}.{name}"
        for layer, names in tracing.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"favd.{layer}"), name, None))
    ]
    assert tracing.TARGETS and not missing


def test_traced_commands_call_every_traced_name(tmp_path):
    """Run the tracer's child on each kind of command the benchmark traces, on a tiny corpus."""
    for project in ("p1", "p2"):
        (tmp_path / project).mkdir()
        (tmp_path / project / "vulnerable.txt").write_text(
            f"read_file\nparse_{project}\nread_net\ncopy_buf\n")
        (tmp_path / project / "benign.txt").write_text(
            f"draw_window\nlog_{project}\ndraw_frame\nopen_ui\n")
    (tmp_path / "corpus.csv").write_text("name,label\nread_file,vulnerable\nparse_buf,vulnerable\n"
                                         "draw_window,benign\nlog_msg,benign\n")
    (tmp_path / "scores.csv").write_text("term,score\nread,0.9\nparse,0.5\ndraw,0.1\n")
    (tmp_path / "code.c").write_text("int read_header(char *b) { return parse_int(b); }\n")
    corpus = ["--vuln", "p1/vulnerable.txt", "--benign", "p1/benign.txt"]
    fast = ["--weights", "1-1", "--cutoff-step", "2"]
    commands = [
        ["train", *corpus, *fast, "--trace", "trace.csv", "--words-csv", "words.csv",
         "--out", "m.json"],
        ["train", "--csv", "corpus.csv", *fast, "--out", "csv.json"],
        ["train", *corpus, "--scores", "scores.csv", "--out", "scores.json"],
        ["eval", *corpus, *fast, "--kfold", "2", "--out-dir", "kfold"],
        ["eval", "--loo", "p1", "p2", *fast, "--out-dir", "loo"],
        ["roc", *corpus, "--model", "m.json", "--out", "roc.csv"],
        ["harvest", "code.c", "--out", "names.csv"],
        ["predict", "--model", "m.json", "--names", "names.csv", "--out", "pred.csv"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    called = set()
    for i, argv in enumerate(commands):
        result = tmp_path / f"result{i}.json"
        proc = subprocess.run([sys.executable, str(TRACING), str(result), "1", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        doc = json.loads(result.read_text())
        assert doc["rc"] == 0, argv
        called |= doc["tallies"]["calls"].keys()
    targets = {f"{layer}.{name}" for layer, names in _tracing().TARGETS.items() for name in names}
    assert targets - called == set()
