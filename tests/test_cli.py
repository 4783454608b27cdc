import argparse
import csv
import hashlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from favd.cli import OPTIONS, build_parser, main
from favd.corpus import clean, load_lists
from favd.errors import DataError
from favd.model_io import load_model, model_document, save_model
from favd.predictor import TunedModel, classify
from favd.ranking import DangerousWordList, MinScorePolicy, Weight
from favd.synth import MAX_NAMES, MAX_WORDS
from favd.tuner import SearchGrid, search_weights
import cli_surface
from bruteforce import oracle_counts, oracle_loo, oracle_rank, oracle_sweep
from gridcells import grid_cells
from test_predictor import _textbook

C_SOURCE = """\
int read_header(char *buf) {
    return parse_int(buf);
}
// int ghost(void) { return 0; }
void emit_record(struct rec *r) { write(r); }
"""


@pytest.fixture
def corpus_files(tmp_path):
    vuln = tmp_path / "vulnerable.txt"
    benign = tmp_path / "benign.txt"
    vuln.write_text(
        "danger_read_file\ndanger_parse_net\ndanger_copy_buf\ndanger_recv_pkt\n"
    )
    benign.write_text(
        "log_msg_write\nopen_window_ui\nclose_window_ui\ndraw_frame_ui\n"
    )
    return vuln, benign


def test_split_prints_terms(capsys):
    assert main(["split", "png_push_read_chunk"]) == 0
    assert capsys.readouterr().out.splitlines() == ["png", "push", "read", "chunk"]


def test_split_fold_case(capsys):
    assert main(["split", "LZWDecode", "--fold-case"]) == 0
    assert capsys.readouterr().out.splitlines() == ["lzwdecode"]
    # Folded after splitting, so case boundaries still cut.
    assert main(["split", "readFile", "--fold-case"]) == 0
    assert capsys.readouterr().out.splitlines() == ["read", "file"]


def test_usage_error_exits_one():
    assert main(["split"]) in (1,)  # missing positional
    assert main(["no-such-command"]) == 1
    # Only train, eval, roc and baseline read a config file.
    assert main(["split", "--config", "c.json", "read_file"]) == 1
    assert main(["predict", "--model", "m.json", "--names", "n.txt", "--config", "c.json"]) == 1
    assert main(["harvest", "code.c", "--config", "c.json"]) == 1
    assert main(["synth", "--spec", "s.json", "--out", "o", "--config", "c.json"]) == 1
    # There is no corpus label.
    assert main(["train", "--vuln", "v.txt", "--benign", "b.txt", "--out", "m.json",
                 "--label", "x"]) == 1


def test_help_and_usage_errors_are_pinned(monkeypatch):
    # The pins are argparse's wording on 3.10-3.12; see tests/cli_surface.py to regenerate them.
    pins = json.loads(cli_surface.PINS.read_text()).get(cli_surface.version())
    if pins is None:
        pytest.skip(f"no CLI surface pins for Python {cli_surface.version()}")
    monkeypatch.setenv("COLUMNS", cli_surface.COLUMNS)
    assert cli_surface.surface() == pins


def test_train_predict_roundtrip(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    model_path = tmp_path / "model.json"
    rc = main([
        "train", "--vuln", str(vuln), "--benign", str(benign),
        "--cutoff-step", "1", "--out", str(model_path),
    ])
    assert rc == 0
    model = load_model(model_path)
    assert model.cutoff >= 1
    capsys.readouterr()

    names = tmp_path / "names.txt"
    names.write_text("danger_poll\nopen_socket\n")
    out_csv = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--names", str(names),
               "--out", str(out_csv)])
    assert rc == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "name,label,percentage,matched_terms"
    assert rows[1].startswith("danger_poll,vulnerable,0.5")
    assert rows[2].startswith("open_socket,benign,0.0")


def test_train_writes_provenance_and_config(tmp_path, corpus_files):
    vuln, benign = corpus_files
    model_path = tmp_path / "model.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "1", "--policy", "none", "--out", str(model_path)])
    doc = json.loads(model_path.read_text())
    assert doc["provenance"]["config"]["policy"] == "all"
    assert set(doc["provenance"]["inputs"]) == {"vulnerable", "benign"}
    assert doc["provenance"]["inputs"]["vulnerable"]["sha256"]


def test_train_trace_dump(tmp_path, corpus_files):
    vuln, benign = corpus_files
    trace = tmp_path / "trace.csv"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "2", "--weights", "1-1,3-2",
          "--out", str(tmp_path / "m.json"), "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    assert lines[0] == "weight,cutoff,threshold,tp,fp,fn,tn,f2"
    weights_seen = {line.split(",")[0] for line in lines[1:]}
    assert weights_seen == {"1-1", "3-2"}


TRACE_HEADER = "weight,cutoff,threshold,tp,fp,fn,tn,f2"


@pytest.fixture
def mixed_corpus_files(tmp_path):
    """Terms on both sides, so that 1-1 (and 2-2), 3-1 and 1-10 rank them differently."""
    vuln, benign = tmp_path / "mixed_vulnerable.txt", tmp_path / "mixed_benign.txt"
    vuln.write_text("read_buf_copy\nread_net_parse\nbuf_alloc\nnet_copy\n")
    benign.write_text("read_log\nread_ui\nbuf_log\nnet_ui\ncopy_ui\n")
    return vuln, benign


def _train_argv(corpus_files, *flags):
    vuln, benign = corpus_files
    return ["train", "--vuln", str(vuln), "--benign", str(benign), "--cutoff-step", "1", *flags]


def test_trace_rows_are_each_weights_grid_cells_in_order(tmp_path, mixed_corpus_files):
    """Weight in grid order, cutoff ascending, threshold descending; each row's counts and F2."""
    trace_path = tmp_path / "trace.csv"
    weights = (Weight(1, 1), Weight(1, 10), Weight(2, 2))
    assert main(_train_argv(mixed_corpus_files, "--weights", "1-1,1-10,2-2", "--beta", "3/2",
                            "--out", str(tmp_path / "m.json"), "--trace", str(trace_path))) == 0
    trace = []
    search_weights(clean(*load_lists(*mixed_corpus_files)), MinScorePolicy.at_least(0),
                   SearchGrid(cutoff_step=1, weights=weights), beta=Fraction(3, 2), trace=trace)
    expected = [TRACE_HEADER] + [
        f"{weight.tag()},{cell.cutoff},{float(cell.threshold)},{','.join(map(str, cell.counts))},"
        f"{float(cell.f2):.6f}"
        for weight, counts in trace
        for cell in grid_cells(counts, Fraction(3, 2))
    ]
    assert trace_path.read_text().splitlines() == expected
    assert len({id(counts) for _, counts in trace}) == 2  # 2-2 shares 1-1's counts


def _trace_blocks(text: str) -> list[tuple[str, list[str]]]:
    """A trace CSV's runs of rows under one tag, in file order, as (tag, rows less the tag)."""
    rows = [line.split(",", 1) for line in text.splitlines()[1:]]
    return [(tag, [rest for _, rest in run]) for tag, run in groupby(rows, key=itemgetter(0))]


def test_trace_repeats_a_shared_ranking_under_each_weights_tag(tmp_path, mixed_corpus_files):
    # 1-1 and 2-2 rank alike (scores scale with the weight), so 2-2 reuses 1-1's counts.
    trace_path = tmp_path / "trace.csv"
    assert main(_train_argv(mixed_corpus_files, "--weights", "1-1,3-1,2-2", "--policy", "none",
                            "--out", str(tmp_path / "m.json"), "--trace", str(trace_path))) == 0
    blocks = _trace_blocks(trace_path.read_text())
    assert [tag for tag, _ in blocks] == ["1-1", "3-1", "2-2"]
    assert blocks[2][1] == blocks[0][1] != blocks[1][1]


def test_external_scores_trace_has_an_empty_tag(tmp_path, corpus_files):
    scores = tmp_path / "scores.csv"
    scores.write_text("danger,0.9\nread,0.5\nwindow,0.1\n")
    trace_path = tmp_path / "trace.csv"
    assert main(_train_argv(corpus_files, "--scores", str(scores), "--out", str(tmp_path / "m.json"),
                            "--trace", str(trace_path))) == 0
    [(tag, rows)] = _trace_blocks(trace_path.read_text())
    assert tag == "" and len(rows) == 3 * 21  # 3 cutoffs x the 21 default thresholds


def test_a_trace_that_fails_midway_leaves_the_old_trace(tmp_path, mixed_corpus_files,
                                                        monkeypatch, capsys):
    import favd.tuner

    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("old trace\n")
    real_trace_text = favd.tuner.trace_text

    def failing_trace_text(trace, beta):
        chunks = real_trace_text(trace, beta)
        yield next(chunks)  # a column already in the temporary file
        raise DataError("cannot format the trace")

    monkeypatch.setattr(favd.tuner, "trace_text", failing_trace_text)
    assert main(_train_argv(mixed_corpus_files, "--weights", "1-1,3-1", "--out",
                            str(tmp_path / "m.json"), "--trace", str(trace_path))) == 2
    assert "cannot format the trace" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["m.json", "mixed_benign.txt",
                                            "mixed_vulnerable.txt", "trace.csv"]
    assert trace_path.read_text() == "old trace\n"


@pytest.mark.parametrize("flag", ["--trace", "--words-csv"])
def test_csv_on_stdout_is_the_files_bytes_and_the_status_goes_to_stderr(tmp_path, corpus_files,
                                                                        capsys, flag):
    argv = _train_argv(corpus_files, "--weights", "1-1,2-2", "--out", str(tmp_path / "m.json"))
    assert main([*argv, flag, str(tmp_path / "out.csv")]) == 0
    status = capsys.readouterr().out
    assert status.startswith("model written to ")
    assert main([*argv, flag, "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == (tmp_path / "out.csv").read_text()
    assert captured.err == status
    width = 8 if flag == "--trace" else 3
    assert all(len(row) == width for row in csv.reader(io.StringIO(captured.out)))


def test_trace_and_words_csv_cannot_both_go_to_stdout(tmp_path, corpus_files, capsys):
    model = tmp_path / "m.json"
    assert main(_train_argv(corpus_files, "--out", str(model), "--trace", "-",
                            "--words-csv", "-")) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("favd: data error: --trace - and --words-csv - cannot both write "
                            "to standard output\n")
    assert not model.exists()


def test_eval_reports_are_deterministic(tmp_path, corpus_files):
    vuln, benign = corpus_files
    args = ["eval", "--vuln", str(vuln), "--benign", str(benign),
            "--kfold", "2", "--seed", "11", "--cutoff-step", "1"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("eval_report.json", "folds.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report = json.loads((tmp_path / "a" / "eval_report.json").read_text())
    assert report["protocol"] == {"kind": "kfold", "k": 2, "seed": 11}
    assert len(report["folds"]) == 2
    for fold in report["folds"]:
        assert set(fold["baselines"]) == {"all_vulnerable_f2", "random_f2"}


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
def test_eval_reports_are_replaced_together(tmp_path, corpus_files, monkeypatch, capsys, exc):
    """A failed second report leaves both old reports, byte for byte, and no temporary file."""
    import favd.errors

    vuln, benign = corpus_files
    out = tmp_path / "ev"
    args = ["eval", "--vuln", str(vuln), "--benign", str(benign), "--kfold", "2",
            "--cutoff-step", "1", "--out-dir", str(out)]
    assert main([*args, "--seed", "1"]) == 0
    old = {name: (out / name).read_bytes() for name in ("eval_report.json", "folds.csv")}
    real_replace = os.replace

    def replace(source, target):  # folds.csv's new text is whole, but cannot take its place
        if Path(target).name == "folds.csv":
            raise exc
        real_replace(source, target)

    monkeypatch.setattr(favd.errors.os, "replace", replace)
    if isinstance(exc, OSError):
        assert main([*args, "--seed", "2"]) == 2
        assert "folds.csv" in capsys.readouterr().err
    else:
        with pytest.raises(KeyboardInterrupt):
            main([*args, "--seed", "2"])
    assert sorted(os.listdir(out)) == sorted(old)
    assert {name: (out / name).read_bytes() for name in old} == old


# folds.csv's columns, in order, and the field of a fold in eval_report.json
# that each one shows; "weight" shows the weight tag, else the score file.
FOLD_COLUMNS = {
    "fold": ("fold",), "train_vuln": ("train", "vulnerable"), "train_benign": ("train", "benign"),
    "test_vuln": ("test", "vulnerable"), "test_benign": ("test", "benign"), "weight": None,
    "cutoff": ("model", "cutoff"), "threshold": ("model", "threshold"),
    **{key: ("metrics", key)
       for key in ("tp", "fp", "fn", "tn", "precision", "recall", "f1", "f2")},
    **{key: ("baselines", key) for key in ("all_vulnerable_f2", "random_f2")},
}


@pytest.mark.parametrize("protocol", ["kfold", "loo", "scores"])
def test_folds_csv_is_the_projection_of_the_eval_report(tmp_path, protocol):
    # Class sizes that differ between train and test, and between the classes.
    (tmp_path / "v.txt").write_text("danger_read\ndanger_net\nread_buf\nnet_recv\ndanger_copy\n")
    (tmp_path / "b.txt").write_text("log_write\nui_draw\nui_read\nopen_window\nnet_log\n"
                                    "ui_flip\nlog_msg\n")
    argv = ["--vuln", str(tmp_path / "v.txt"), "--benign", str(tmp_path / "b.txt"), "--kfold", "2"]
    if protocol == "loo":
        argv = ["--loo"]
        for i in range(3):
            d = tmp_path / f"p{i}"
            d.mkdir()
            (d / "vulnerable.txt").write_text(f"danger_read_{i}\ndanger_net_{i}\n")
            (d / "benign.txt").write_text(f"log_write_{i}\nui_draw_{i}\nui_read_{i}\n")
            argv.append(str(d))
    elif protocol == "scores":
        (tmp_path / "s.csv").write_text("danger,0.9\nread,0.5\nui,1/3\n")
        argv += ["--scores", str(tmp_path / "s.csv")]
    out = tmp_path / "ev"
    assert main(["eval", *argv, "--cutoff-step", "1", "--out-dir", str(out)]) == 0
    folds = json.loads((out / "eval_report.json").read_text())["folds"]
    header, *rows = out.joinpath("folds.csv").read_text().splitlines()
    assert header.split(",") == list(FOLD_COLUMNS)
    assert len(rows) == len(folds) == (3 if protocol == "loo" else 2)
    for row, fold in zip(rows, folds):
        for (column, path), text in zip(FOLD_COLUMNS.items(), row.split(",")):
            if path is None:
                value = fold["model"]["weight"] or fold["model"]["source"] or ""
            else:
                value = fold
                for key in path:
                    value = value[key]
            assert text == str(value), (protocol, column)
        assert (fold["model"]["weight"] is None) == (protocol == "scores")


def test_eval_loo_over_project_dirs(tmp_path):
    for name, vul, ben in [
        ("projA", "danger_read\ndanger_net\n", "log_write\nui_draw\n"),
        ("projB", "danger_copy\ndanger_recv\n", "ui_open\nui_close\n"),
        ("projC", "danger_mmap\ndanger_poll\n", "ui_blit\nui_flip\n"),
    ]:
        d = tmp_path / name
        d.mkdir()
        (d / "vulnerable.txt").write_text(vul)
        (d / "benign.txt").write_text(ben)
    out = tmp_path / "out"
    rc = main(["eval", "--loo", str(tmp_path / "projA"), str(tmp_path / "projB"),
               str(tmp_path / "projC"), "--cutoff-step", "1", "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["protocol"]["kind"] == "leave_one_out"
    assert [f["fold"] for f in report["folds"]] == ["projA", "projB", "projC"]


def _eval_loo_against_the_oracle(root: Path, projects: dict, weights: list[Weight]) -> list:
    """Run `eval --loo` over `projects`, {name: (vulnerable list, benign list)}, in `root`, check
    each fold's sizes, model and counts against tests/bruteforce.py, and return the folds' F2s."""
    for name, lists in projects.items():
        (root / name).mkdir()
        for file, names in zip(("vulnerable.txt", "benign.txt"), lists):
            (root / name / file).write_text("".join(f"{n}\n" for n in names), encoding="utf-8")
    thresholds = [Fraction(k, 4) for k in range(5)]
    assert main(["eval", "--loo", *(str(root / name) for name in projects),
                 "--weights", ",".join(w.tag() for w in weights), "--cutoff-step", "1",
                 "--threshold-step", "1/4", "--out-dir", str(root / "ev")]) == 0
    folds = json.loads((root / "ev" / "eval_report.json").read_text())["folds"]
    expected = oracle_loo(projects.values())
    assert len(folds) == len(expected) == len(projects)
    f2s = []
    for fold, (train_v, train_b, test_v, test_b) in zip(folds, expected):
        assert fold["train"] == {"vulnerable": len(train_v), "benign": len(train_b)}
        assert fold["test"] == {"vulnerable": len(test_v), "benign": len(test_b)}
        (f2, w, cutoff, threshold), _ = oracle_sweep(
            SimpleNamespace(vulnerable=train_v, benign=train_b), weights, 1, thresholds)
        words = oracle_rank(sorted(train_v), sorted(train_b), weights[w], keep_all=False)
        assert [fold["model"][key] for key in ("weight", "cutoff", "threshold", "train_f2")] == [
            weights[w].tag(), cutoff, float(threshold), round(float(f2), 3)]
        tp, fp, fn, tn = oracle_counts(test_v, test_b, set(words[:cutoff]), threshold)
        assert [fold["metrics"][key] for key in ("tp", "fp", "fn", "tn")] == [tp, fp, fn, tn]
        f2s.append(f2)
    return f2s


def test_eval_loo_agrees_with_the_oracle(tmp_path):
    """Each fold's sizes, model and counts, recomputed from the lists by tests/bruteforce.py."""
    projects = {
        # read_buf is vulnerable in alpha and benign in beta; copy_net is vulnerable in beta
        # and gamma. So gamma's and alpha's train sides each hold a name of two projects.
        "alpha": (["read_buf", "read_net", "parse_hdr", "__"], ["ui_draw", "log_msg", "read_log"]),
        "beta": (["copy_net", "parse_buf", "read_hdr"], ["read_buf", "ui_open", "log_net"]),
        "gamma": (["copy_net", "net_recv", "parse_len", "copy_len"],
                  ["ui_close", "log_len", "draw_buf"]),
    }
    f2s = _eval_loo_against_the_oracle(tmp_path, projects, [Weight(1, 1), Weight(2, 1), Weight(1, 2)])
    assert all(f2s)  # models that flag something, so the counts tell


# Few words, so that projects share names, under mixed labels too. `__` has no terms; digits,
# case and the non-ASCII letters cut terms; a list may repeat a name or share one with the other.
loo_cli_name = st.lists(st.sampled_from(["read", "buf", "netRecv", "x9", "2", "é", "Ünï"]),
                        max_size=2).map("_".join).map(lambda name: name or "__")
loo_cli_project = st.lists(st.tuples(loo_cli_name, st.booleans()), min_size=1, max_size=8).map(
    lambda rows: ([name for name, vulnerable in rows if vulnerable],
                  [name for name, vulnerable in rows if not vulnerable]))


@settings(max_examples=100, deadline=None)
@given(projects=st.lists(loo_cli_project, min_size=2, max_size=4),
       weights=st.lists(st.sampled_from([Weight(1, 1), Weight(2, 1), Weight(1, 3), Weight(10, 1)]),
                        min_size=1, max_size=3, unique=True))
@example(projects=[(["read_buf", "x9"], ["é"]), (["2"], ["read_buf", "é"]), (["é", "__"], ["buf"])],
         weights=[Weight(1, 1), Weight(1, 3)])
def test_eval_loo_agrees_with_the_oracle_on_generated_projects(projects, weights):
    """`eval --loo` through the command line equals the oracle, fold by fold."""
    labels = {}
    for vulnerable, benign in projects:
        for name in set(vulnerable) | set(benign):
            labels.setdefault(name, set()).add(name in vulnerable)
    event(f"a name under mixed labels in two projects: {any(len(v) == 2 for v in labels.values())}")
    with tempfile.TemporaryDirectory() as tmp:
        f2s = _eval_loo_against_the_oracle(Path(tmp), {f"p{i}": p for i, p in enumerate(projects)},
                                           weights)
    event(f"a fold's model flags a name: {any(f2s)}")


# With `shared`, read_buf is vulnerable in the first project and benign in the second and
# third, and log_msg is benign in the first two: every train side holds a name of two projects.
SHARED = [("read_buf\n", "log_msg\n"), ("", "read_buf\nlog_msg\n"), ("", "read_buf\n")]


def _loo_projects(root: Path, names=("projA", "projB", "projC"), shared=False) -> list[Path]:
    """Project directories whose names are all distinct, across projects too, unless `shared`."""
    for i, name in enumerate(names):
        d = root / name
        d.mkdir(parents=True)
        more_vulnerable, more_benign = SHARED[i] if shared else ("", "")
        (d / "vulnerable.txt").write_text(
            f"danger_read_{i}\ndanger_netRecv{i}\n{'_' * (i + 2)}\n{more_vulnerable}")
        (d / "benign.txt").write_text(f"log_write_{i}\nuiDraw{i}\ndanger_{i}\n{more_benign}")
    return [root / name for name in names]


def test_eval_loo_splits_each_name_once(tmp_path, monkeypatch):
    """Names shared under mixed labels and under one label are split once too."""
    import favd.corpus

    calls, real_split = Counter(), favd.corpus.split

    def counting_split(name):
        calls[name] += 1
        return real_split(name)

    monkeypatch.setattr(favd.corpus, "split", counting_split)
    dirs = _loo_projects(tmp_path, shared=True)
    assert main(["eval", "--loo", *map(str, dirs), "--cutoff-step", "1",
                 "--out-dir", str(tmp_path / "out")]) == 0
    names = [n for d in dirs for f in ("vulnerable.txt", "benign.txt")
             for n in (d / f).read_text().split()]
    assert len(names) == 23 and calls == Counter(set(names)) and len(calls) == 20


def test_eval_loo_names_each_directory_by_its_absolute_path(tmp_path, monkeypatch, capsys):
    # "." and ".." are named by the directories they stand for; a symlink keeps its own name.
    dirs = _loo_projects(tmp_path, ("a", "b", "c"))
    (tmp_path / "link").symlink_to(dirs[2], target_is_directory=True)
    monkeypatch.chdir(dirs[0])
    assert main(["eval", "--loo", ".", "../b", "../link", "--cutoff-step", "1",
                 "--out-dir", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
    assert report["protocol"]["projects"] == [f["fold"] for f in report["folds"]] == ["a", "b", "link"]
    assert list(report["inputs"]) == ["a", "b", "link"]
    monkeypatch.chdir(dirs[1])
    assert main(["eval", "--loo", "../a", ".", "../b", "--out-dir", str(tmp_path / "o2")]) == 2
    assert "distinct names" in capsys.readouterr().err
    assert main(["eval", "--loo", "/", "../a", "--out-dir", str(tmp_path / "o3")]) == 2
    err = capsys.readouterr().err
    assert err == "favd: data error: leave-one-out directory / has no name\n"


@pytest.mark.parametrize("protocol", ["kfold", "loo", "train"])
def test_eval_holds_only_the_running_folds_corpora(tmp_path, corpus_files, monkeypatch,
                                                   live_corpora, protocol):
    # Live name-set corpora at each tuning: a fold's train side is an encoding alone, so
    # k-fold holds only the running fold's test side, leave-one-out its inputs and the test
    # side, and train none: it tunes on the input's encoding. Before each fold's tuning, `seen`
    # takes the records that hold the test side's own sets: a leave-one-out test side is a
    # new record over its project's sets, so it holds no second copy of them.
    import gc

    import favd.cli
    import favd.corpus
    import favd.tuner

    seen, real_search, real_eval_fold = [], favd.tuner.search_weights, favd.cli._eval_fold

    def search_weights(*args, **kwargs):
        seen.append(live_corpora() - before)
        return real_search(*args, **kwargs)

    def eval_fold(fold_id, fold, **kwargs):  # the records that hold the test side's own sets
        test = fold[1]
        seen.append(sum(isinstance(o, favd.corpus.LabeledCorpus) and o.vulnerable is test.vulnerable
                        and o.benign is test.benign for o in gc.get_objects()))
        return real_eval_fold(fold_id, fold, **kwargs)

    monkeypatch.setattr(favd.tuner, "search_weights", search_weights)
    monkeypatch.setattr(favd.cli, "_eval_fold", eval_fold)
    corpus = ["--vuln", str(corpus_files[0]), "--benign", str(corpus_files[1])]
    out_dir = ["--out-dir", str(tmp_path / "ev")]
    if protocol == "kfold":
        argv, expected = ["eval", *corpus, "--kfold", "4", *out_dir], [1, 1] * 4
    elif protocol == "train":
        argv, expected = ["train", *corpus, "--out", str(tmp_path / "m.json")], [0]
    else:
        argv, expected = ["eval", *out_dir, "--loo"], [2, 4] * 3
        for i in range(3):
            d = tmp_path / f"p{i}"
            d.mkdir()
            (d / "vulnerable.txt").write_text(f"danger_read_{i}\ndanger_net_{i}\n")
            (d / "benign.txt").write_text(f"log_write_{i}\nui_draw_{i}\n")
            argv.append(str(d))
    before = live_corpora()
    assert main([*argv, "--cutoff-step", "1"]) == 0
    assert seen == expected


def test_sizes_count_names_that_have_no_terms(tmp_path):
    """A name with no terms has no row; every train and test count still counts it."""
    from favd.corpus import make_kfold
    from favd.metrics import f_beta
    from favd.predictor import VULNERABLE, ConfusionCounts

    vuln, benign = tmp_path / "v.txt", tmp_path / "b.txt"
    vuln.write_text("__\n___\nread_buf\nrecv_net\ncopy_buf\nparse_hdr\nnet_read\n")
    benign.write_text("__\n___\n____\nui_draw\nlog_msg\nui_open\nlog_file\nbuf_free\nui_close\n")
    corpus = clean(*load_lists(vuln, benign))  # "__" and "___" are on both lists, so vulnerable
    assert {"__", "___"} <= corpus.vulnerable and "____" in corpus.benign
    assert main(["eval", "--vuln", str(vuln), "--benign", str(benign), "--kfold", "3",
                 "--cutoff-step", "1", "--out-dir", str(tmp_path / "ev")]) == 0
    report = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
    with open(tmp_path / "ev" / "folds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    tests = [test for _, test in make_kfold(corpus, 3, 0).folds]
    assert len(report["folds"]) == len(rows) == len(tests) == 3
    for fold, row, test in zip(report["folds"], rows, tests):
        v, b = len(test.vulnerable), len(test.benign)
        train = {"vulnerable": len(corpus.vulnerable) - v, "benign": len(corpus.benign) - b}
        assert fold["test"] == {"vulnerable": v, "benign": b} and fold["train"] == train
        assert [int(row[key]) for key in ("train_vuln", "train_benign", "test_vuln", "test_benign")
                ] == [train["vulnerable"], train["benign"], v, b]
    # train's F2 is counted name by name over the cleaned lists: the termless names are fn and tn.
    assert main(["train", "--vuln", str(vuln), "--benign", str(benign), "--cutoff-step", "1",
                 "--out", str(tmp_path / "m.json")]) == 0
    model = load_model(tmp_path / "m.json")
    tp, fp = (sum(classify(name, model).label == VULNERABLE for name in names)
              for names in (corpus.vulnerable, corpus.benign))
    counts = ConfusionCounts(tp, fp, len(corpus.vulnerable) - tp, len(corpus.benign) - fp)
    assert json.loads((tmp_path / "m.json").read_text())["train_f2"] == float(f_beta(counts, 2))
    assert tp > 0  # so the termless names, all fn, move the F2


def test_roc_without_a_benign_name_is_a_data_error(tmp_path, capsys):
    (tmp_path / "v.txt").write_text("danger_read\ndanger_net\n")
    (tmp_path / "b.txt").write_text("\n")
    assert main(["roc", "--vuln", str(tmp_path / "v.txt"), "--benign", str(tmp_path / "b.txt"),
                 "--weight", "1-1", "--out", str(tmp_path / "roc.csv")]) == 2
    assert capsys.readouterr().err == (
        "favd: data error: ROC rates need at least one vulnerable and one benign name\n")
    assert not (tmp_path / "roc.csv").exists()


@pytest.mark.parametrize("protocol", ["kfold", "loo"])
def test_eval_cleans_each_input_once_and_no_fold(tmp_path, corpus_files, monkeypatch, protocol):
    """No fold calls `clean`: a leave-one-out train side joins its projects' encoded groups."""
    import favd.corpus

    cleans, splits = [], Counter()
    real_clean, real_split = favd.corpus.clean, favd.corpus.split

    def counting_clean(vulnerable, benign):
        cleans.append(1)
        return real_clean(vulnerable, benign)

    def counting_split(name):
        splits[name] += 1
        return real_split(name)

    monkeypatch.setattr(favd.corpus, "clean", counting_clean)
    monkeypatch.setattr(favd.corpus, "split", counting_split)
    if protocol == "kfold":
        vuln, benign = corpus_files
        lists = [load_lists(vuln, benign)]
        argv, expected = ["--vuln", str(vuln), "--benign", str(benign), "--kfold", "4"], 1
    else:  # one call per project
        dirs = _loo_projects(tmp_path, shared=True)
        lists = [load_lists(d / "vulnerable.txt", d / "benign.txt") for d in dirs]
        argv, expected = ["--loo", *map(str, dirs)], 3
    assert main(["eval", *argv, "--cutoff-step", "1", "--out-dir", str(tmp_path / "out")]) == 0
    assert len(cleans) == expected
    assert splits == Counter({name for pair in lists for names in pair for name in names})


def test_eval_loo_rejects_duplicate_directory_names(tmp_path, capsys):
    # The names are the fold ids and the digest keys, so they must differ.
    for parent in ("a", "b"):
        d = tmp_path / parent / "proj"
        d.mkdir(parents=True)
        (d / "vulnerable.txt").write_text("danger_read\n")
        (d / "benign.txt").write_text("log_write\n")
    rc = main(["eval", "--loo", str(tmp_path / "a/proj"), str(tmp_path / "b/proj"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "distinct names" in capsys.readouterr().err


def test_eval_loo_rejects_a_directory_named_scores_under_scores(tmp_path, capsys):
    # With --scores, the score file's digest is recorded under the key "scores".
    for name in ("scores", "other"):
        d = tmp_path / name
        d.mkdir()
        (d / "vulnerable.txt").write_text("danger_read\n")
        (d / "benign.txt").write_text("log_write\n")
    (tmp_path / "s.csv").write_text("danger,0.9\n")
    argv = ["eval", "--loo", str(tmp_path / "scores"), str(tmp_path / "other"),
            "--cutoff-step", "1", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--scores", str(tmp_path / "s.csv")]) == 2
    assert "distinct names" in capsys.readouterr().err


def test_eval_records_the_score_file_digest(tmp_path, corpus_files):
    vuln, benign = corpus_files
    scores = tmp_path / "scores.csv"
    scores.write_text("danger,0.9\nread,0.5\n")
    assert main(["eval", "--vuln", str(vuln), "--benign", str(benign), "--scores", str(scores),
                 "--kfold", "2", "--cutoff-step", "1", "--out-dir", str(tmp_path / "ev")]) == 0
    inputs = json.loads((tmp_path / "ev" / "eval_report.json").read_text())["inputs"]
    assert set(inputs) == {"vulnerable", "benign", "scores"}
    assert inputs["scores"] == {"path": str(scores),
                                "sha256": hashlib.sha256(scores.read_bytes()).hexdigest()}


def test_eval_loads_and_ranks_external_scores_once(tmp_path, monkeypatch):
    # The table's ranking does not depend on the fold, so every fold tunes the same one.
    import favd.ranking

    calls = Counter()

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    for name in ("rank", "load_external_scores"):
        monkeypatch.setattr(favd.ranking, name, counting(name, getattr(favd.ranking, name)))
    (tmp_path / "v.txt").write_text("danger_read\ndanger_net\nread_buf\n")
    (tmp_path / "b.txt").write_text("log_write\nui_draw\nui_read\n")
    (tmp_path / "s.csv").write_text("danger,0.9\nread,0.5\nui,1/3\n")
    assert main(["eval", "--vuln", str(tmp_path / "v.txt"), "--benign", str(tmp_path / "b.txt"),
                 "--kfold", "3", "--scores", str(tmp_path / "s.csv"), "--cutoff-step", "1",
                 "--out-dir", str(tmp_path / "ev")]) == 0
    assert calls == {"rank": 1, "load_external_scores": 1}


def test_eval_checks_the_external_policy_before_reading_the_corpus(tmp_path, capsys):
    (tmp_path / "s.csv").write_text("danger,0.9\n")
    missing = str(tmp_path / "missing.txt")
    assert main(["eval", "--vuln", missing, "--benign", missing, "--scores", str(tmp_path / "s.csv"),
                 "--policy", "2", "--out-dir", str(tmp_path / "ev")]) == 2
    assert capsys.readouterr().err == (
        "favd: data error: external policy threshold must lie in [0, 1], got 2\n")


def test_empty_corpus_error_names_its_files(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "e.txt").write_text("\n")
    (tmp_path / "e.csv").write_text("name,label\n")
    for corpus, named in ((["--vuln", "e.txt", "--benign", "e.txt"], "e.txt and e.txt"),
                          (["--csv", "e.csv"], "e.csv")):
        assert main(["baseline", *corpus]) == 2
        assert capsys.readouterr().err == f"favd: data error: {named}: both name lists are empty\n"


def test_unknown_config_key_is_a_data_error(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    train = ["train", "--vuln", str(vuln), "--benign", str(benign), "--cutoff-step", "1",
             "--out", str(tmp_path / "m.json"), "--config", str(tmp_path / "c.json")]
    # Typos, and the corpus label that no command reads any more.
    for config in ({"cutof_step": 7, "polcy": "none"}, {"label": "x"}):
        (tmp_path / "c.json").write_text(json.dumps(config))
        assert main(train) == 2
        err = capsys.readouterr().err
        assert err.startswith("favd: data error: ") and len(err.splitlines()) == 1
        assert all(repr(key) in err for key in config)
    # A key another command reads is ignored, so one file serves train and eval.
    (tmp_path / "c.json").write_text(json.dumps({"kfold": 2, "seed": 3, "weight": "1-1"}))
    assert main(train) == 0


def test_readme_config_table_lists_each_commands_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = {command: keys.split()
             for command, keys in re.findall(r"^\| `(\w+)` \| `([\w ]+)` \|$", readme, re.M)}
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert table == {name: list(p.get_default("keys")) for name, p in commands.items()
                     if p.get_default("keys")}


def test_eval_infeasible_folds_exit_three(tmp_path, corpus_files):
    vuln, benign = corpus_files
    rc = main(["eval", "--vuln", str(vuln), "--benign", str(benign),
               "--kfold", "9", "--out-dir", str(tmp_path / "x")])
    assert rc == 3


def test_missing_input_exits_two(tmp_path):
    rc = main(["train", "--vuln", str(tmp_path / "nope.txt"),
               "--benign", str(tmp_path / "nope2.txt"), "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_baseline_from_counts(capsys):
    # The last two rows are the published corpora: 7.2% and 1.6% vulnerable.
    for v, b, all_vulnerable_f2, percent in [(75, 522, 0.418, 12.6),
                                             (72_612, 932_741, 0.28, 7.2),
                                             (402, 24_906, 0.075, 1.6)]:
        assert main(["baseline", "--counts", str(v), str(b)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_vulnerable_f2"] == all_vulnerable_f2
        assert doc["counts"] == {"vulnerable": v, "benign": b}
        assert round(100 * doc["vulnerable_fraction"], 1) == percent


def test_roc_csv_anchors(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    out = tmp_path / "roc.csv"
    rc = main(["roc", "--vuln", str(vuln), "--benign", str(benign),
               "--weight", "1-1", "--cutoffs", "2",
               "--include-zero-endpoint", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "cutoff,threshold,tpr,fpr"
    assert rows[1] == "2,1.0,0.000000,0.000000"
    assert rows[-1] == "2,0.0,1.000000,1.000000"


def test_harvest_then_predict(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    src = tmp_path / "code.c"
    src.write_text(C_SOURCE)
    harvest_csv = tmp_path / "harvest.csv"
    assert main(["harvest", str(src), "--out", str(harvest_csv)]) == 0
    rows = harvest_csv.read_text().splitlines()
    assert rows[0] == "name,file,line"
    assert [r.split(",")[0] for r in rows[1:]] == ["read_header", "emit_record"]

    model_path = tmp_path / "model.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "1", "--out", str(model_path)])
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--names", str(harvest_csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,label,percentage,matched_terms"
    assert len(out) == 3


def test_predict_plain_list_whose_first_name_is_name_stays_a_list(tmp_path, corpus_files,
                                                                  capsys):
    # Only a first line that starts with `name,` marks a harvest CSV.
    vuln, benign = corpus_files
    model = tmp_path / "m.json"
    assert main(["train", "--vuln", str(vuln), "--benign", str(benign),
                 "--cutoff-step", "1", "--out", str(model)]) == 0
    names = tmp_path / "names.txt"
    names.write_text("name\ndanger_read\n")
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--names", str(names)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.split(",")[0] for row in rows] == ["name", "name", "danger_read"]


# predict hands to classify only the names that hold a deployed word; the
# rows of the others must still be what the rule, written with Fractions,
# gives (test_predictor._textbook).
DEPLOYED = ["buf", "read", "Net", "données"]


def _deployed(words: list[str], threshold: Fraction) -> TunedModel:
    dangerous = DangerousWordList(words=tuple((w, len(words) - i) for i, w in enumerate(words)),
                                  policy=MinScorePolicy.all_terms(), weight=Weight(1, 1))
    return TunedModel(dangerous, len(words), threshold)


def _predict(root: Path, names: list[str], model: TunedModel) -> list[str]:
    save_model(model_document(model, Fraction(0)), root / "model.json")
    (root / "names.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
    assert main(["predict", "--model", str(root / "model.json"), "--names",
                 str(root / "names.txt"), "--out", str(root / "pred.csv")]) == 0
    return (root / "pred.csv").read_text(encoding="utf-8").splitlines()[1:]


@pytest.mark.parametrize("threshold", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)])
def test_predict_rows_follow_the_rule_with_and_without_a_deployed_word(tmp_path, threshold):
    names = [
        "write_log",  # no deployed word
        "___",  # no terms at all
        "buffer_x",  # holds "buf" as a substring, not as a term
        "buf_buf",  # one deployed term, twice
        "données_ⅰ",  # non-ASCII, deployed
        "élan_ǅx",  # non-ASCII, not deployed
        "readNet_x",
        "read_buf",
    ]
    expected = []
    for name in names:
        label, percentage, matched = _textbook(name, DEPLOYED, threshold)
        expected.append(f"{name},{label},{float(percentage):.6f},{';'.join(sorted(matched))}")
    assert _predict(tmp_path, names, _deployed(DEPLOYED, threshold)) == expected


def test_predict_splits_each_name_once(tmp_path, monkeypatch):
    """A name that holds a deployed word reaches classify with the terms predict split."""
    import favd.predictor
    import favd.splitter

    calls, real_split = Counter(), favd.splitter.split

    def counting_split(name):
        calls[name] += 1
        return real_split(name)

    for module in (favd.splitter, favd.predictor):
        monkeypatch.setattr(module, "split", counting_split)
    names = ["write_log", "___", "read_buf", "readNet_x", "buf_buf", "données_ⅰ"]
    rows = _predict(tmp_path, names, _deployed(DEPLOYED, Fraction(1, 3)))
    assert [row.split(",")[2] != "0.000000" for row in rows] == [False, False, True, True,
                                                                  True, True]
    assert calls == Counter(names)


@settings(max_examples=60, deadline=None)
@given(names=st.lists(st.text(alphabet="aBcDe1_2é$ÉⅰǅX9zZ", min_size=1, max_size=10),
                      min_size=1, max_size=20),
       words=st.lists(st.sampled_from(["a", "B", "c", "De", "1", "é", "ⅰ", "zZ", "X9"]),
                      min_size=1, max_size=5, unique=True),
       threshold=st.builds(Fraction, st.integers(0, 6), st.just(6)))
def test_predict_rows_match_classify_name_by_name(names, words, threshold):
    model = _deployed(words, threshold)
    with tempfile.TemporaryDirectory() as tmp:
        rows = _predict(Path(tmp), names, model)
    expected = []
    for name in names:
        p = classify(name, model)
        expected.append(f"{name},{p.label},{float(p.percentage):.6f},"
                        f"{';'.join(sorted(p.matched_terms))}")
    assert rows == expected


def _names_file(path: Path, count: int) -> None:
    """`count` names, every other one holding deployed words."""
    path.write_text("".join(f"read_buf_{i}\nwrite_log_{i}\n" for i in range(count // 2)))


def _save_deployed(path: Path) -> None:
    save_model(model_document(_deployed(DEPLOYED, Fraction(1, 3)), Fraction(0)), path)


def test_predict_peak_memory_does_not_grow_with_the_names(tmp_path):
    """predict holds one block of its names file, so 10 times the names costs no memory."""
    _save_deployed(tmp_path / "model.json")
    peak_mb = {}
    for count in (20_000, 200_000):
        _names_file(tmp_path / f"{count}.txt", count)
        argv = ["predict", "--model", "model.json", "--names", f"{count}.txt",
                "--out", f"{count}.csv"]
        # The benchmark's launcher reports the child's own peak RSS, not this
        # process's, which a child forked from here would inherit.
        proc = subprocess.run([sys.executable, str(_ROOT / "bench" / "launch.py"), "run.json",
                               sys.executable, "-m", "favd.cli", *argv],
                              cwd=tmp_path, env=_ENV, capture_output=True, text=True)
        run = json.loads((tmp_path / "run.json").read_text())
        assert proc.returncode == 0 and run["rc"] == 0, proc.stderr
        assert (tmp_path / f"{count}.csv").read_text().count("\n") == count + 1
        peak_mb[count] = run["peak_rss_mb"]
    # The whole list held at once adds about 15 MB here.
    assert peak_mb[200_000] - peak_mb[20_000] < 2, peak_mb


@pytest.mark.parametrize("kind", ["list", "harvest-csv"])
def test_predict_may_write_over_its_own_names_file(tmp_path, kind):
    _save_deployed(tmp_path / "model.json")
    names = tmp_path / "names"
    _names_file(names, 2000)
    if kind == "harvest-csv":
        names.write_text("name,file,line\n" + "".join(
            f"{name},f.c,{i}\n" for i, name in enumerate(names.read_text().split())))
    predict = ["predict", "--model", str(tmp_path / "model.json"), "--names", str(names)]
    assert main([*predict, "--out", str(tmp_path / "fresh.csv")]) == 0
    assert main([*predict, "--out", str(names)]) == 0
    assert names.read_bytes() == (tmp_path / "fresh.csv").read_bytes()


# A names file whose line 50,001 fails, after 50,000 good names (a header and
# 49,999 rows for a CSV), and the message each failure gives.
_GOOD_NAMES = "".join(f"read_buf_{i}\n" for i in range(50_000)).encode()
_GOOD_ROWS = b"name,file,line\n" + b"".join(b"read_%d,f.c,1\n" % i for i in range(49_999))
FAILING_NAMES = {
    "list-bad-byte": (_GOOD_NAMES + b"bad\xffname\n",
                      f"position {len(_GOOD_NAMES) + 3}: invalid start byte"),
    "csv-bad-byte": (_GOOD_ROWS + b"bad\xffname,f.c,1\n",
                     f"position {len(_GOOD_ROWS) + 3}: invalid start byte"),
    "csv-line-break": (_GOOD_ROWS + b'"two\nlines",f.c,1\n',
                       "names.txt:50002: name holds a line break"),
}


@pytest.mark.parametrize("existing", [True, False], ids=["existing-out", "new-out"])
@pytest.mark.parametrize("case", sorted(FAILING_NAMES))
def test_a_predict_that_fails_midway_leaves_the_old_output_or_none(tmp_path, capsys, case,
                                                                   existing):
    content, message = FAILING_NAMES[case]
    (tmp_path / "in").mkdir()
    _save_deployed(tmp_path / "in" / "model.json")
    (tmp_path / "in" / "names.txt").write_bytes(content)
    out = tmp_path / "out" / "pred.csv"
    if existing:
        out.parent.mkdir()
        out.write_bytes(b"old predictions\n")
    capsys.readouterr()
    assert main(["predict", "--model", str(tmp_path / "in" / "model.json"),
                 "--names", str(tmp_path / "in" / "names.txt"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and message in err, err
    if existing:
        assert os.listdir(out.parent) == ["pred.csv"]
        assert out.read_bytes() == b"old predictions\n"
    else:
        assert not out.exists()
        assert not out.parent.exists() or os.listdir(out.parent) == []


def test_predict_writes_to_dev_null(tmp_path, corpus_files):
    _save_deployed(tmp_path / "model.json")
    assert main(["predict", "--model", str(tmp_path / "model.json"),
                 "--names", str(corpus_files[0]), "--out", os.devnull]) == 0


def test_train_starved_vocabulary_persists_model_with_warning(tmp_path, capsys):
    vuln = tmp_path / "v.txt"
    benign = tmp_path / "b.txt"
    vuln.write_text("")  # nothing vulnerable: every term scores negative
    benign.write_text("log_msg\nui_draw\nio_poll\n")
    model_path = tmp_path / "m.json"
    rc = main(["train", "--vuln", str(vuln), "--benign", str(benign),
               "--policy", "zero", "--weights", "1-1", "--out", str(model_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "vocabulary starvation" in captured.err
    doc = json.loads(model_path.read_text())
    assert doc["dangerous"] == []
    assert doc["cutoff"] == 0
    assert any("starvation" in w for w in doc["warnings"])


def test_roc_from_saved_model(tmp_path, corpus_files):
    vuln, benign = corpus_files
    model_path = tmp_path / "model.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "1", "--out", str(model_path)])
    out = tmp_path / "roc.csv"
    rc = main(["roc", "--vuln", str(vuln), "--benign", str(benign),
               "--model", str(model_path), "--cutoffs", "1,3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    cutoffs_seen = {r.split(",")[0] for r in rows[1:]}
    assert cutoffs_seen == {"1", "3"}


def test_roc_rejects_a_cutoff_past_a_one_word_model(tmp_path, corpus_files, capsys):
    # 4 is the word list record's field count: the bound is the words' length, 1.
    vuln, benign = corpus_files
    model_path = tmp_path / "m.json"
    save_model(model_document(_deployed(["read"], Fraction(0)), Fraction(0)), model_path)
    assert main(["roc", "--vuln", str(vuln), "--benign", str(benign),
                 "--model", str(model_path), "--cutoffs", "4"]) == 2
    assert "at most 1, the dangerous list's length" in capsys.readouterr().err


def test_train_with_empty_benign_marks_every_term_dangerous(tmp_path):
    vuln = tmp_path / "v.txt"
    benign = tmp_path / "b.txt"
    vuln.write_text("alpha_read\nbeta_parse\n")
    benign.write_text("")
    model_path = tmp_path / "m.json"
    rc = main(["train", "--vuln", str(vuln), "--benign", str(benign),
               "--cutoff-step", "1", "--out", str(model_path)])
    assert rc == 0
    doc = json.loads(model_path.read_text())
    terms = {row["term"] for row in doc["dangerous"]}
    assert terms == {"alpha", "read", "beta", "parse"}
    assert all(row["score"] > 0 for row in doc["dangerous"])


def test_synth_command_writes_ground_truth(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert len(truth["planted_dangerous"]) == 2
    assert (out / "vulnerable.txt").exists() and (out / "benign.txt").exists()


@pytest.mark.parametrize("terms", [[2, 3, 4], [2]])
def test_terms_per_name_not_a_pair_names_the_key_and_value(tmp_path, capsys, terms):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(SYNTH_SPEC, terms_per_name=terms)))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == (
        "favd: data error: bad synth spec: terms_per_name: must be a [min, max] pair "
        f"with 1 <= min <= max, got {terms}\n")


def test_config_file_provides_defaults_flags_win(tmp_path, corpus_files):
    vuln, benign = corpus_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": "none", "cutoff_step": 1, "weights": "1-1"}))
    model_a = tmp_path / "a.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--config", str(cfg), "--out", str(model_a)])
    doc_a = json.loads(model_a.read_text())
    assert doc_a["provenance"]["config"]["policy"] == "all"
    model_b = tmp_path / "b.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--config", str(cfg), "--policy", "zero", "--out", str(model_b)])
    doc_b = json.loads(model_b.read_text())
    assert doc_b["provenance"]["config"]["policy"] == "at_least(0.0)"


def test_csv_corpus_input(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "name,label\n"
        "danger_read,vulnerable\ndanger_net,vulnerable\n"
        "log_write,benign\nui_draw,benign\n"
    )
    model = tmp_path / "m.json"
    rc = main(["train", "--csv", str(corpus), "--cutoff-step", "1", "--out", str(model)])
    assert rc == 0
    doc = json.loads(model.read_text())
    assert "csv" in doc["provenance"]["inputs"]


_ROOT = Path(__file__).resolve().parents[1]
_SRC = str(_ROOT / "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))

# Model-file and synth-spec values of the wrong type, by name.
BAD_MODEL_FIELDS = {
    "schema-version-true": {"schema_version": True},
    "schema-version-float": {"schema_version": 1.0},
    "cutoff-float": {"cutoff": 1.9},
    "cutoff-true": {"cutoff": True},
    "cutoff-text": {"cutoff": "1"},
    "threshold-text": {"threshold": "0.5"},
    "threshold-false": {"threshold": False},
    "weight-float": {"weight": {"plus": 1.5, "minus": 1}},
    "weight-true": {"weight": {"plus": True, "minus": 1}},
    "score-text": {"dangerous": [{"term": "read", "score": "1"}]},
    "term-number": {"dangerous": [{"term": 5, "score": 1}]},
}
BAD_SPEC_FIELDS = {
    "terms-per-name-float": {"terms_per_name": [2.5, 3]},
    "terms-per-name-three": {"terms_per_name": [2, 3, 4]},
    "terms-per-name-one": {"terms_per_name": [2]},
    "planted-number": {"planted_dangerous": ["abc", 5]},
    "planted-text": {"planted_dangerous": "abc"},
    "seed-true": {"seed": True},
    "n-vulnerable-float": {"n_vulnerable": 20.9},
    "camel-case-text": {"camel_case": "false"},
    "signal-strength-true": {"signal_strength": True},
    # Counts that would run for minutes before failing, or never end.
    "planted-count-huge": {"planted_count": 1_000_000_000},
    "n-vulnerable-huge": {"n_vulnerable": 1_000_000_000, "vocab_size": 10},
    # Seven vulnerable-side words form at most 1,092 names of 2 to 4 words.
    "vocabulary-too-small": {"seed": 1, "n_vulnerable": 1_000_000, "n_benign": 5,
                             "vocab_size": 10, "terms_per_name": [2, 4]},
}
BAD_INPUTS = {
    "predict-names-not-utf8": ["predict", "--model", "m.json", "--names", "latin1.txt"],
    "train-scores-not-utf8": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--scores", "latin1.txt", "--out", "x.json"],
    "roc-cutoffs-text": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                         "--cutoffs", "x"],
    "roc-cutoffs-zero": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                         "--cutoffs", "0"],
    "roc-cutoffs-negative": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                             "--cutoffs", "-3"],
    "roc-cutoffs-none": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                         "--cutoffs", ","],
    "roc-cutoffs-empty": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                          "--cutoffs", ""],
    "roc-cutoffs-repeated": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                             "--cutoffs", "2,2"],
    # The 1-1 list of this corpus holds 9 words.
    "roc-cutoffs-past-list": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                              "--cutoffs", "9,10"],
    "split-empty": ["split", ""],
    "baseline-counts-text": ["baseline", "--counts", "x", "5"],
    "baseline-counts-float": ["baseline", "--counts", "1.5", "5"],
    "roc-cutoff-step-zero": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                             "--cutoff-step", "0"],
    "roc-threshold-step-zero": ["roc", "--vuln", "v.txt", "--benign", "b.txt",
                                "--weight", "1-1", "--threshold-step", "0"],
    "train-beta-zero": ["train", "--vuln", "v.txt", "--benign", "b.txt", "--beta", "0",
                        "--out", "x.json"],
    "config-cutoff-step-text": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                "--config", "cutoff_step.json", "--out", "x.json"],
    "config-kfold-text": ["eval", "--vuln", "v.txt", "--benign", "b.txt",
                          "--config", "kfold.json", "--out-dir", "ev"],
    "config-seed-text": ["eval", "--vuln", "v.txt", "--benign", "b.txt",
                         "--config", "seed.json", "--out-dir", "ev"],
    "config-policy-number": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                             "--config", "policy.json", "--out", "x.json"],
    "config-weights-number": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--config", "weights.json", "--out", "x.json"],
    "predict-names-directory": ["predict", "--model", "m.json", "--names", "adir"],
    "predict-model-directory": ["predict", "--model", "adir", "--names", "v.txt"],
    "predict-out-directory": ["predict", "--model", "m.json", "--names", "v.txt",
                              "--out", "adir"],
    "harvest-out-directory": ["harvest", "code.c", "--out", "adir"],
    "model-json-array": ["predict", "--model", "array.json", "--names", "v.txt"],
    "model-json-string": ["predict", "--model", "string.json", "--names", "v.txt"],
    "model-policy-number": ["predict", "--model", "policy5.json", "--names", "v.txt"],
    "model-deeply-nested": ["predict", "--model", "deep.json", "--names", "v.txt"],
    "config-deeply-nested": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                             "--config", "deep.json", "--out", "x.json"],
    "predict-names-csv-field-too-large": ["predict", "--model", "m.json", "--names", "big.csv"],
    "train-csv-field-too-large": ["train", "--csv", "big.csv", "--out", "x.json"],
    "train-csv-name-line-break": ["train", "--csv", "line_break.csv", "--out", "x.json"],
    "train-scores-empty-term": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                "--scores", "empty_term_scores.csv", "--out", "x.json"],
    "train-scores-term-line-break": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                     "--scores", "line_break_scores.csv", "--out", "x.json"],
    "train-scores-field-too-large": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                     "--scores", "big_scores.csv", "--out", "x.json"],
    # Outputs that are directories or lie under a file.
    "train-out-directory": ["train", "--vuln", "v.txt", "--benign", "b.txt", "--out", "adir"],
    "train-words-csv-directory": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                  "--out", "x.json", "--words-csv", "adir"],
    "train-out-under-file": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                             "--out", "v.txt/m.json"],
    "eval-out-dir-file": ["eval", "--vuln", "v.txt", "--benign", "b.txt", "--kfold", "2",
                          "--out-dir", "v.txt"],
    "baseline-out-directory": ["baseline", "--vuln", "v.txt", "--benign", "b.txt",
                               "--out", "adir"],
    "synth-out-under-file": ["synth", "--spec", "spec.json", "--out", "v.txt/s"],
    # Inputs that are directories.
    "train-vuln-directory": ["train", "--vuln", "adir", "--benign", "b.txt", "--out", "x.json"],
    "train-csv-directory": ["train", "--csv", "adir", "--out", "x.json"],
    "train-scores-directory": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                               "--scores", "adir", "--out", "x.json"],
    "train-config-directory": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                               "--config", "adir", "--out", "x.json"],
    "synth-spec-directory": ["synth", "--spec", "adir", "--out", "s"],
    # Numbers that do not convert to a finite float.
    "train-beta-overflow": ["train", "--vuln", "v.txt", "--benign", "b.txt", "--beta", "1e400",
                            "--out", "x.json"],
    "train-policy-overflow": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--policy", "1e400", "--out", "x.json"],
    # A threshold grid far above metrics.MAX_THRESHOLDS values.
    "train-threshold-step-too-fine": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                      "--threshold-step", "1e-400", "--out", "x.json"],
    # Values that were once read as something else: a falsy weights as the
    # default grid, a float or boolean as an integer.
    "train-weights-empty": ["train", "--vuln", "v.txt", "--benign", "b.txt", "--weights", "",
                            "--out", "x.json"],
    # A repeated weight would tune and trace the same cells twice.
    "train-weights-repeated": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                               "--weights", "1-1,2-1,1-1", "--out", "x.json"],
    **{f"config-weights-{name}": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                  "--config", f"weights_{name}.json", "--out", "x.json"]
       for name in ("empty-list", "empty-string", "zero", "false", "repeated")},
    "config-cutoff-step-float": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                 "--config", "cutoff_step_float.json", "--out", "x.json"],
    "config-cutoff-step-true": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                "--config", "cutoff_step_true.json", "--out", "x.json"],
    "config-kfold-float": ["eval", "--vuln", "v.txt", "--benign", "b.txt",
                           "--config", "kfold_float.json", "--out-dir", "ev"],
    "config-seed-true": ["eval", "--vuln", "v.txt", "--benign", "b.txt",
                         "--config", "seed_true.json", "--out-dir", "ev"],
    # Ten-digit decimal exponents: Fraction would build the power of ten
    # exactly and never finish.
    "train-beta-exponent": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                            "--beta", "1e1000000000", "--out", "x.json"],
    "train-policy-exponent": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--policy", "1e-1000000000", "--out", "x.json"],
    "train-threshold-step-exponent": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                      "--threshold-step", "1e-1000000000", "--out", "x.json"],
    "train-scores-exponent": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--scores", "exponent_scores.csv", "--out", "x.json"],
    # An integer too long for int(), as JSON reads it.
    "config-integer-too-long": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                "--config", "long_int.json", "--out", "x.json"],
    "model-integer-too-long": ["predict", "--model", "long_int.json", "--names", "v.txt"],
    # Model-file and spec values of the wrong type, once cast to the right one.
    **{f"model-{name}": ["predict", "--model", f"model_{name}.json", "--names", "v.txt"]
       for name in BAD_MODEL_FIELDS},
    # The rank-1 word listed again at the end; predict and roc would rank it differently.
    "model-repeated-term": ["predict", "--model", "model_repeated_term.json", "--names", "v.txt"],
    **{f"spec-{name}": ["synth", "--spec", f"spec_{name}.json", "--out", "s"]
       for name in BAD_SPEC_FIELDS},
}
# The config files BAD_INPUTS reads, by name.
BAD_CONFIGS = {
    "cutoff_step.json": {"cutoff_step": "a"},
    "kfold.json": {"kfold": "x"},
    "seed.json": {"seed": "x"},
    "policy.json": {"policy": 5},
    "weights.json": {"weights": 5},
    "weights_empty-list.json": {"weights": []},
    "weights_empty-string.json": {"weights": ""},
    "weights_zero.json": {"weights": 0},
    "weights_false.json": {"weights": False},
    "weights_repeated.json": {"weights": "1-1,2-1,01-1"},
    "cutoff_step_float.json": {"cutoff_step": 2.5},
    "cutoff_step_true.json": {"cutoff_step": True},
    "kfold_float.json": {"kfold": 2.9},
    "seed_true.json": {"seed": True},
}
SYNTH_SPEC = {"seed": 9, "n_vulnerable": 8, "n_benign": 8, "planted_count": 2,
              "vocab_size": 12, "terms_per_name": [2, 2]}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_a_data_error_without_traceback(tmp_path, corpus_files, argv):
    vuln, benign = corpus_files
    assert main(["train", "--vuln", str(vuln), "--benign", str(benign),
                 "--cutoff-step", "1", "--out", str(tmp_path / "m.json")]) == 0
    (tmp_path / "v.txt").write_text(vuln.read_text())
    (tmp_path / "b.txt").write_text(benign.read_text())
    (tmp_path / "latin1.txt").write_bytes("lecture_donn\xe9es,0.5\n".encode("latin-1"))
    for name, config in BAD_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    (tmp_path / "spec.json").write_text(json.dumps(SYNTH_SPEC))
    (tmp_path / "code.c").write_text(C_SOURCE)
    (tmp_path / "adir").mkdir()
    (tmp_path / "array.json").write_text("[1]")
    (tmp_path / "string.json").write_text('"x"')
    model = json.loads((tmp_path / "m.json").read_text())
    (tmp_path / "policy5.json").write_text(json.dumps(dict(model, policy=5)))
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    # One quoted field above the csv module's 131,072-character limit.
    (tmp_path / "big.csv").write_text('name,label\n"' + "a" * 200_000 + '",vulnerable\n')
    (tmp_path / "big_scores.csv").write_text('"' + "a" * 200_000 + '",0.5\n')
    (tmp_path / "line_break.csv").write_text('name,label\n"two\nlines",vulnerable\n'
                                             'read_file,benign\n')
    (tmp_path / "exponent_scores.csv").write_text("read,1e-1000000000\n")
    (tmp_path / "empty_term_scores.csv").write_text("read,0.5\n,0.9\n")
    (tmp_path / "line_break_scores.csv").write_text('read,0.5\n"two\nlines",0.7\n')
    (tmp_path / "long_int.json").write_text('{"seed": ' + "1" * 5000 + "}")
    for name, field in BAD_MODEL_FIELDS.items():
        (tmp_path / f"model_{name}.json").write_text(json.dumps(dict(model, **field)))
    (tmp_path / "model_repeated_term.json").write_text(
        json.dumps(dict(model, dangerous=model["dangerous"] + model["dangerous"][:1])))
    for name, field in BAD_SPEC_FIELDS.items():
        (tmp_path / f"spec_{name}.json").write_text(json.dumps(dict(SYNTH_SPEC, **field)))
    proc = subprocess.run([sys.executable, "-m", "favd.cli", *argv], cwd=tmp_path, env=_ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("favd: data error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def _stdout_command(command: str, tmp_path: Path, corpus_files) -> list[str]:
    """A favd command that writes to stdout; predict writes more than a pipe holds."""
    if command == "baseline":
        return ["baseline", "--counts", "3", "4"]
    if command == "split":
        return ["split", "foo_bar"]
    vuln, benign = corpus_files
    assert main(["train", "--vuln", str(vuln), "--benign", str(benign),
                 "--cutoff-step", "1", "--out", str(tmp_path / "m.json")]) == 0
    (tmp_path / "names.txt").write_text("".join(f"danger_read_{i}\n" for i in range(20_000)))
    return ["predict", "--model", "m.json", "--names", "names.txt"]


@pytest.mark.parametrize("command", ["predict", "baseline"])
def test_closed_stdout_pipe_ends_quietly(tmp_path, corpus_files, command):
    argv = _stdout_command(command, tmp_path, corpus_files)
    proc = subprocess.Popen([sys.executable, "-m", "favd.cli", *argv], cwd=tmp_path, env=_ENV,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()  # as `| head -1` does
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), stderr) == (0, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("command", ["split", "predict"])
def test_full_stdout_is_a_data_error(tmp_path, corpus_files, command):
    argv = _stdout_command(command, tmp_path, corpus_files)
    with open("/dev/full", "w") as full:  # every write to it fails with ENOSPC
        proc = subprocess.run([sys.executable, "-m", "favd.cli", *argv], cwd=tmp_path, env=_ENV,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("favd: data error: cannot write standard output: ")
    assert len(proc.stderr.splitlines()) == 1


@pytest.fixture
def every_command(tmp_path, corpus_files):
    """One command line per subcommand (eval twice), keyed by name, run in this order
    from `tmp_path`, with the inputs they read written there."""
    (tmp_path / "code.c").write_text(C_SOURCE)
    for project, names in (("p1", "danger_read\nlog_write\n"), ("p2", "danger_net\nui_draw\n"),
                           ("p3", "danger_copy\nui_open\n")):
        (tmp_path / project).mkdir()
        danger, safe = names.split()
        (tmp_path / project / "vulnerable.txt").write_text(danger + "\n")
        (tmp_path / project / "benign.txt").write_text(safe + "\n")
    (tmp_path / "spec.json").write_text(json.dumps(SYNTH_SPEC))
    pair = ["--vuln", corpus_files[0].name, "--benign", corpus_files[1].name]
    return {
        "split": ["split", "png_push_read_chunk"],
        "train": ["train", *pair, "--cutoff-step", "1", "--out", "m.json", "--trace", "t.csv",
                  "--words-csv", "w.csv"],
        "eval-kfold": ["eval", *pair, "--kfold", "2", "--cutoff-step", "1", "--out-dir", "ev"],
        "eval-loo": ["eval", "--loo", "p1", "p2", "p3", "--cutoff-step", "1", "--out-dir", "loo"],
        "roc": ["roc", *pair, "--weight", "1-1", "--out", "roc.csv"],
        "harvest": ["harvest", "code.c", "--out", "h.csv"],
        "predict": ["predict", "--model", "m.json", "--names", "h.csv", "--out", "p.csv"],
        "baseline": ["baseline", "--counts", "75", "522"],
        "synth": ["synth", "--spec", "spec.json", "--out", "synth"],
    }


def test_every_subcommand_runs_with_numpy_blocked(tmp_path, every_command):
    """favd needs nothing outside the standard library: numpy cannot be imported here."""
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "from favd.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(list(every_command.values()))],
                          cwd=tmp_path, env=_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p.csv").read_text().count("\n") == 3
    for output in ("t.csv", "w.csv", "ev/folds.csv", "loo/folds.csv", "roc.csv",
                   "synth/vulnerable.txt"):
        assert (tmp_path / output).stat().st_size > 0, output


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path, every_command):
    """Start-up cost: each command, in a fresh interpreter, loads no module it does not use."""
    run = "from favd.cli import main\nassert main(json.loads(sys.argv[1])) == 0\n"

    def modules_after(code: str, *args: str) -> set[str]:
        script = f"import json, sys\n{code}print(json.dumps(sorted(sys.modules)))\n"
        proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path, env=_ENV,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (args, proc.stderr)
        return set(json.loads(proc.stdout.splitlines()[-1]))

    interpreter = modules_after("")  # loaded before favd is, by site for one
    # OpenSSL's hash module costs each digesting command megabytes of peak memory.
    builtin_sha256 = any(map(importlib.util.find_spec, ("_sha2", "_sha256")))
    for name, argv in every_command.items():
        modules = modules_after(run, json.dumps(argv))
        loaded = modules - interpreter  # what favd itself loads
        favd = {module for module in modules if module.startswith("favd.")}
        assert "dataclasses" not in modules, name
        assert ("favd.harvest" in modules) == (name == "harvest"), name
        assert ("favd.synth" in modules) == (name == "synth"), name
        if name in ("split", "predict", "harvest", "roc"):
            assert "hashlib" not in modules, name
        if builtin_sha256:
            assert "_hashlib" not in modules, name
        if name == "split":
            assert favd == {"favd.cli", "favd.errors", "favd.splitter"}
        if name == "harvest":
            assert favd == {"favd.cli", "favd.errors", "favd.harvest"}
        if name == "predict":
            assert not favd & {"favd.corpus", "favd.tuner", "favd.metrics"}
            assert "random" not in loaded, name


# Fuzz of the same contract: a malformed model file, a malformed name file or
# a config value of the wrong JSON type ends with exit 1, 2 or 3 and no
# traceback. Every generated input is invalid by construction.
json_scalar = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6))
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
json_container = (st.lists(json_value, max_size=3)
                  | st.dictionaries(st.text(max_size=4), json_value, max_size=3))
not_a_number = st.none() | json_container  # int() and Fraction() reject these
not_a_string = json_value.filter(lambda v: not isinstance(v, str))
letters = st.text(alphabet="abx_ -", min_size=1, max_size=5)

_FUZZ_MODEL_WORDS = 3  # the fuzzed model's list length, so cutoffs above it are invalid
# Numbers written as JSON text, and JSON values that are not numbers at all;
# model files and specs hold numbers as JSON numbers only.
number_text = st.integers(-2, 4).map(str) | st.floats(allow_nan=False).map(repr)
not_a_json_number = not_a_number | letters | st.booleans() | number_text
bad_count = not_a_json_number | st.floats() | st.integers(max_value=0)
MODEL_FIELD = {
    "schema_version": not_a_number | letters,
    "policy": json_value.filter(lambda v: not isinstance(v, dict)),
    "weight": st.one_of(st.integers(), letters, st.lists(json_value, min_size=1, max_size=3),
                        st.booleans(),
                        st.fixed_dictionaries({"plus": bad_count, "minus": st.just(1)}),
                        st.fixed_dictionaries({"plus": st.just(1), "minus": bad_count})),
    "cutoff": (not_a_json_number | st.floats() | st.integers(max_value=0)
               | st.integers(min_value=_FUZZ_MODEL_WORDS + 1)),
    "threshold": (not_a_json_number | st.integers(max_value=-1)
                  | st.floats().filter(lambda x: not 0 <= x <= 1)),
    "dangerous": (json_scalar | st.lists(json_scalar, min_size=1, max_size=3)
                  | st.lists(st.fixed_dictionaries({"term": not_a_string,
                                                    "score": st.integers()}), min_size=1)
                  | st.lists(st.fixed_dictionaries({"term": st.just("read"),
                                                    "score": not_a_json_number}), min_size=1)),
}
malformed_model = st.one_of(
    st.sampled_from(sorted(MODEL_FIELD)).flatmap(
        lambda name: st.tuples(st.just("field"), st.tuples(st.just(name), MODEL_FIELD[name]))),
    st.tuples(st.just("policy-kind"),
              json_value.filter(lambda v: v not in ("all", "at_least"))),
    st.tuples(st.just("policy-threshold"), not_a_json_number),
    st.tuples(st.just("document"), json_value.filter(lambda v: not isinstance(v, dict))),
    st.tuples(st.just("truncated"), st.floats(0, 1, exclude_max=True)),
)

# Config keys, the wrong values for each, and a command that reads the key
# from the config file only (its flag is left out).
_TRAIN = ["train", "--vuln", "v.txt", "--benign", "b.txt", "--out", "m.json"]
not_an_integer = st.floats() | st.booleans()
too_large = st.just("1e400")  # a number no float holds
CONFIG_CASES = {
    "policy": (not_a_string | too_large, _TRAIN),
    # null means the default grid; an empty string names no pair.
    "weights": (not_a_string.filter(lambda v: v is not None) | st.sampled_from(["", " ,"]),
                _TRAIN),
    "cutoff_step": (not_a_number | letters | st.integers(max_value=0) | not_an_integer, _TRAIN),
    "threshold_step": (not_a_number | letters | st.booleans() | too_large | st.just("1e-400"),
                       _TRAIN),
    "beta": (not_a_number | letters | st.booleans() | st.integers(max_value=0) | too_large,
             _TRAIN),
    "scores": (not_a_string.filter(lambda v: v is not None), _TRAIN),
    "vuln": (not_a_string, ["train", "--benign", "b.txt", "--out", "m.json"]),
    "benign": (not_a_string, ["train", "--vuln", "v.txt", "--out", "m.json"]),
    "csv": (not_a_string, ["train", "--out", "m.json"]),
    "kfold": (not_a_number | letters | not_an_integer,
              ["eval", "--vuln", "v.txt", "--benign", "b.txt", "--out-dir", "ev"]),
    "seed": (not_a_number | letters | not_an_integer,
             ["eval", "--vuln", "v.txt", "--benign", "b.txt", "--out-dir", "ev"]),
    "loo": (json_value.filter(lambda v: not (isinstance(v, list) and v
                                             and all(isinstance(d, str) for d in v))),
            ["eval", "--out-dir", "ev"]),
    "weight": (not_a_string, ["roc", "--vuln", "v.txt", "--benign", "b.txt"]),
}
config_case = st.sampled_from(sorted(CONFIG_CASES)).flatmap(
    lambda key: st.tuples(st.just(key), CONFIG_CASES[key][0]))

# A name file with one byte that is not UTF-8, read by each command that reads names.
NAME_FILE_ARGS = {
    "predict-names": ["predict", "--model", "good.json", "--names", "fuzz.txt"],
    "train-vuln": ["train", "--vuln", "fuzz.txt", "--benign", "b.txt", "--out", "m.json"],
    "train-benign": ["train", "--vuln", "v.txt", "--benign", "fuzz.txt", "--out", "m.json"],
    "eval-csv": ["eval", "--csv", "fuzz.txt", "--out-dir", "ev"],
    "roc-vuln": ["roc", "--vuln", "fuzz.txt", "--benign", "b.txt", "--weight", "1-1"],
}
non_utf8_names = st.builds(
    lambda text, cut, bad: text.encode()[:cut] + bad + text.encode()[cut:],
    st.text(max_size=40), st.integers(0, 40),
    st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80"]),
)


def _fuzz_model_document() -> dict:
    words = ["read", "parse", "copy"][:_FUZZ_MODEL_WORDS]
    dangerous = DangerousWordList(words=tuple((w, 3 - i) for i, w in enumerate(words)),
                                  policy=MinScorePolicy.at_least(0), weight=Weight(1, 1))
    model = TunedModel(dangerous=dangerous, cutoff=2, threshold=Fraction(1, 2))
    return model_document(model, Fraction(1, 2))


def _run_malformed(files: dict[str, str | bytes], argv: list[str],
                   directories: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "v.txt").write_text("danger_read_file\ndanger_parse_net\n")
        (root / "b.txt").write_text("log_msg_write\nopen_window_ui\n")
        (root / "good.json").write_text(json.dumps(_fuzz_model_document()))
        for name, content in files.items():
            path = root / name
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        for name in directories:
            (root / name).mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "favd.cli", *argv], cwd=root,
                              env=_ENV, capture_output=True, text=True)
    assert proc.returncode in (1, 2, 3), (argv, files, proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, files, proc.stderr)
    return proc


_FUZZ = settings(max_examples=25, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@_FUZZ
@given(case=malformed_model, command=st.sampled_from(["predict", "roc"]))
def test_fuzzed_model_file_fails_cleanly(case, command):
    kind, value = case
    doc = _fuzz_model_document()
    if kind == "field":
        doc[value[0]] = value[1]
    elif kind == "policy-kind":
        doc["policy"] = {"kind": value}
    elif kind == "policy-threshold":
        doc["policy"] = {"kind": "at_least", "threshold": value}
    elif kind == "document":
        doc = value
    text = json.dumps(doc)
    if kind == "truncated":
        text = json.dumps(_fuzz_model_document())
        text = text[:int(value * len(text))]
    argv = (["predict", "--model", "fuzz.json", "--names", "v.txt"] if command == "predict"
            else ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--model", "fuzz.json"])
    _run_malformed({"fuzz.json": text}, argv)


@_FUZZ
@given(case=config_case)
def test_fuzzed_config_value_fails_cleanly(case):
    key, value = case
    argv = CONFIG_CASES[key][1] + ["--config", "fuzz.json"]
    _run_malformed({"fuzz.json": json.dumps({key: value})}, argv)


@_FUZZ
@given(key=st.text(max_size=12).filter(lambda key: key not in OPTIONS))
def test_fuzzed_unknown_config_key_fails_cleanly(key):
    proc = _run_malformed({"fuzz.json": json.dumps({key: 1})}, [*_TRAIN, "--config", "fuzz.json"])
    assert proc.returncode == 2, (key, proc.stderr)
    assert len(proc.stderr.strip().splitlines()) == 1


# Synth-spec keys and the wrong values for each; SYNTH_SPEC sets the rest.
not_a_string_list = json_value.filter(
    lambda v: v is not None and not (isinstance(v, list) and v
                                     and all(isinstance(t, str) for t in v)))
SPEC_CASES = {
    "seed": not_a_json_number | st.floats(),
    "n_vulnerable": bad_count | st.integers(min_value=MAX_NAMES + 1),
    "n_benign": bad_count | st.integers(min_value=MAX_NAMES + 1),
    "vocab_size": bad_count | st.integers(min_value=MAX_WORDS + 1),
    "planted_count": bad_count | st.integers(min_value=MAX_WORDS + 1),
    "planted_dangerous": not_a_string_list,
    "terms_per_name": (json_scalar
                       | st.lists(not_a_json_number | st.floats(), min_size=1, max_size=3)),
    "signal_strength": not_a_json_number | st.floats().filter(lambda x: not 0 <= x <= 1),
    "vocab_overlap": not_a_json_number | st.floats().filter(lambda x: not 0 <= x <= 1),
    "camel_case": json_value.filter(lambda v: not isinstance(v, bool)),
}
spec_case = st.sampled_from(sorted(SPEC_CASES)).flatmap(
    lambda key: st.tuples(st.just(key), SPEC_CASES[key]))


@_FUZZ
@given(case=spec_case)
def test_fuzzed_spec_value_fails_cleanly(case):
    key, value = case
    spec = json.dumps(dict(SYNTH_SPEC, **{key: value}))
    proc = _run_malformed({"fuzz.json": spec}, ["synth", "--spec", "fuzz.json", "--out", "o"])
    assert proc.returncode == 2, (spec, proc.stderr)
    assert proc.stderr.startswith("favd: data error: bad synth spec: ")
    assert len(proc.stderr.strip().splitlines()) == 1


@_FUZZ
@given(content=non_utf8_names, reader=st.sampled_from(sorted(NAME_FILE_ARGS)))
def test_fuzzed_name_file_fails_cleanly(content, reader):
    _run_malformed({"fuzz.txt": content}, NAME_FILE_ARGS[reader])


# Each output flag, after the rest of a command that succeeds, and whether
# the flag names a directory (True) or a file.
_PAIR = ["--vuln", "v.txt", "--benign", "b.txt"]
OUTPUT_FLAGS = {
    "train-out": (["train", *_PAIR, "--out"], False),
    "train-words-csv": (["train", *_PAIR, "--out", "m.json", "--words-csv"], False),
    "train-trace": (["train", *_PAIR, "--out", "m.json", "--trace"], False),
    "eval-out-dir": (["eval", *_PAIR, "--kfold", "2", "--out-dir"], True),
    "predict-out": (["predict", "--model", "good.json", "--names", "v.txt", "--out"], False),
    "roc-out": (["roc", *_PAIR, "--weight", "1-1", "--out"], False),
    "baseline-out": (["baseline", "--counts", "1", "2", "--out"], False),
    "harvest-out": (["harvest", "code.c", "--out"], False),
    "synth-out": (["synth", "--spec", "spec.json", "--out"], True),
}


@_FUZZ
@given(flag=st.sampled_from(sorted(OUTPUT_FLAGS)), under_file=st.booleans(),
       parts=st.lists(st.sampled_from(["sub", "x.csv", "m.json"]), max_size=2))
def test_fuzzed_output_path_is_a_data_error(flag, under_file, parts):
    """An output path that is a directory, or lies under a file, exits 2 with one line."""
    argv, names_directory = OUTPUT_FLAGS[flag]
    directories: tuple[str, ...] = ()
    if under_file:
        path = "/".join(["afile", *parts, "out"])
    elif names_directory:
        path = "/".join(["afile", *parts])  # a file stands where the directory goes
    else:
        path = "/".join(["adir", *parts])
        directories = (path,)
    files = {"afile": "x\n", "code.c": C_SOURCE, "spec.json": json.dumps(SYNTH_SPEC)}
    proc = _run_malformed(files, [*argv, path], directories)
    assert proc.returncode == 2, (argv, path, proc.stderr)
    assert proc.stderr.startswith("favd: data error: cannot write ")
    assert len(proc.stderr.strip().splitlines()) == 1


# For every option a flag and a config file both set: a value the run fails
# on, and a command that reads the option. Paths name missing files.
_EVAL = ["eval", *_PAIR, "--out-dir", "ev"]
OPTION_CASES = {
    "vuln": ("missing.txt", ["train", "--benign", "b.txt", "--out", "m.json"]),
    "benign": ("missing.txt", ["train", "--vuln", "v.txt", "--out", "m.json"]),
    "csv": ("missing.csv", ["train", "--out", "m.json"]),
    "policy": ("1e400", _TRAIN),
    "weights": ("", _TRAIN),
    "cutoff_step": ("2.5", _TRAIN),
    "threshold_step": ("1e-400", _TRAIN),
    "beta": ("1e400", _TRAIN),
    "scores": ("missing.csv", _TRAIN),
    "kfold": ("2.9", _EVAL),
    "seed": ("x", _EVAL),
    "loo": ("missing", ["eval", "--out-dir", "ev"]),
    "weight": ("1:1", ["roc", *_PAIR]),
}


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_flag_and_config_value_fail_alike(tmp_path, monkeypatch, capsys, key):
    value, argv = OPTION_CASES[key]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.txt").write_text("danger_read_file\ndanger_parse_net\n")
    (tmp_path / "b.txt").write_text("log_msg_write\nopen_window_ui\n")
    (tmp_path / "c.json").write_text(json.dumps({key: [value] if key == "loo" else value}))
    by_flag = main([*argv, f"--{key.replace('_', '-')}", value]), capsys.readouterr().err
    by_config = main([*argv, "--config", "c.json"]), capsys.readouterr().err
    assert by_flag == by_config
    assert by_flag[0] == 2
    assert by_flag[1].startswith("favd: data error: ") and by_flag[1].count("\n") == 1
