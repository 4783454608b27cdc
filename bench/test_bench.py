"""Self-tests of the benchmark's generators and independent checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import workloads  # noqa: E402
from inputs import make_c_tree  # noqa: E402
from run import tree_digest  # noqa: E402

from favd.harvest import harvest  # noqa: E402
from favd.splitter import split  # noqa: E402

SPEC = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SPEC["workloads"]))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    def inputs(seed, root):
        wl = workloads.WORKLOADS[name](SPEC["workloads"][name])
        assert wl.setup(seed, root) == []
        return tree_digest(root / "in")

    assert inputs(3, tmp_path / "a") == inputs(3, tmp_path / "b")
    assert inputs(3, tmp_path / "a") != inputs(4, tmp_path / "c")


@pytest.mark.parametrize("name, terms", [
    ("maxstrlen", ["maxstrlen"]),
    ("LZWDecode", ["LZWDecode"]),
    ("h264", ["h", "264"]),
    ("png_push_read_chunk", ["png", "push", "read", "chunk"]),
    ("__x__Y2z", ["x", "Y", "2", "z"]),
    ("readFile_v2", ["read", "File", "v", "2"]),
])
def test_independent_splitter_matches_readme_and_favd(name, terms):
    assert oracle.terms_of(name) == terms
    assert split(name) == terms


def test_independent_rule_is_strict():
    from fractions import Fraction

    terms = set(oracle.terms_of("png_push_read_chunk"))
    assert oracle.flagged(terms, {"read", "push"}, Fraction(1, 2)) == (False, Fraction(1, 2))
    assert oracle.flagged(terms, {"read", "push", "png"}, Fraction(1, 2)) == (True, Fraction(3, 4))


HAND_WRITTEN_C = """\
#include <stdio.h>
/* int commented_out(void) { return 0; } */
// void line_comment(int x) {
int prototype_only(int a, char *b);
#define MAX(a, b) ((a) > (b) ? (a) : (b))
static int table[] = { 1, 2, 3 };

static int png_read_chunk(const char *buf, size_t len)
{
    if (len > 0 && buf[0] == '(') {
        helper_call(buf, len);
    }
    log_msg("fake_def(int a) { nope }");
    return 0;
}

char *
LZWDecode(int n) {
    while (n > 8) { n /= 2; }
    return NULL;
}
"""


def test_harvest_check_on_hand_written_c(tmp_path, monkeypatch):
    (tmp_path / "src").mkdir()
    (tmp_path / "src/a.c").write_text(HAND_WRITTEN_C, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    names, _ = harvest(["src/a.c"])
    out = tmp_path / "h.csv"
    out.write_text("name,file,line\n" + "".join(f"{h.name},{h.file},{h.line}\n" for h in names))
    expected = [("src/a.c", 8, "png_read_chunk"), ("src/a.c", 18, "LZWDecode")]
    assert oracle.check_harvest(out, expected) == []
    assert oracle.check_harvest(out, expected[:1]) != []


def test_c_generator_planted_set_round_trips(tmp_path, monkeypatch):
    words = ["read", "chunk", "png", "decode", "lzw", "buf", "init", "free", "str", "len"]
    planted = make_c_tree(tmp_path, "tree", 5, {"files": 4, "definitions": 40}, words)
    assert len(planted) == 40
    monkeypatch.chdir(tmp_path)
    names, warnings = harvest(sorted({f for f, _, _ in planted}))
    assert warnings == []
    assert [(h.file, h.line, h.name) for h in names] == planted


def test_prediction_check_flags_a_flipped_label(tmp_path):
    model = {"cutoff": 1, "threshold": 0.5, "dangerous": [{"term": "read", "score": 1}]}
    (tmp_path / "m.json").write_text(json.dumps(model))
    good = "name,label,percentage,matched_terms\nread_x,benign,0.500000,read\nread,vulnerable,1.000000,read\n"
    (tmp_path / "p.csv").write_text(good)
    names = ["read_x", "read"]
    assert oracle.check_predictions(tmp_path / "p.csv", tmp_path / "m.json", names, 0, 2) == []
    (tmp_path / "p.csv").write_text(good.replace("read_x,benign", "read_x,vulnerable"))
    assert oracle.check_predictions(tmp_path / "p.csv", tmp_path / "m.json", names, 0, 2) != []


SMALL = {"vulnerable": 12, "benign": 90, "vocab": 80, "planted": 4, "signal": 0.8,
         "overlap": 0.5, "case": "snake"}


def test_independent_search_and_kfold_agree_with_favd(tmp_path):
    from fractions import Fraction

    from favd.corpus import LabeledCorpus, make_kfold
    from favd.ranking import MinScorePolicy, Weight
    from favd.tuner import SearchGrid, search_weights
    from inputs import make_corpus

    make_corpus(tmp_path, 11, SMALL)
    vuln, benign = oracle.load_corpus(tmp_path / "vulnerable.txt", tmp_path / "benign.txt")
    corpus = LabeledCorpus(vulnerable=frozenset(vuln), benign=frozenset(benign))
    weights = [(1, 1), (1, 2), (3, 1)]
    for policy, floor in (("zero", Fraction(0)), ("none", None)):
        grid = SearchGrid(cutoff_step=3, weights=tuple(Weight(p, m) for p, m in weights))
        model = search_weights(corpus, MinScorePolicy.parse(policy), grid)
        best = oracle.tune(oracle.term_sets(vuln), oracle.term_sets(benign), weights, floor, 3)
        assert (best.weight, best.cutoff, best.threshold, best.f2) == (
            (model.model.weight.plus, model.model.weight.minus), model.model.cutoff,
            model.model.threshold, model.train_f2)
        assert best.words == [t for t, _ in model.model.dangerous.words]
    plan = make_kfold(corpus, 5, 4)
    assert oracle.kfold(vuln, benign, 5, 4) == [
        (set(test.vulnerable), set(test.benign)) for _, test in plan.folds]


def test_eval_check_flags_a_wrong_fold_model(tmp_path, monkeypatch):
    from favd.cli import main
    from inputs import make_corpus

    make_corpus(tmp_path / "in", 12, SMALL)
    monkeypatch.chdir(tmp_path)
    assert main(["eval", "--vuln", "in/vulnerable.txt", "--benign", "in/benign.txt",
                 "--kfold", "3", "--seed", "0", "--out-dir", "out"]) == 0
    vuln, benign = oracle.load_corpus(tmp_path / "in/vulnerable.txt", tmp_path / "in/benign.txt")
    report = tmp_path / "out/eval_report.json"
    assert oracle.check_eval(report, vuln, benign, 3, 0) == []
    doc = json.loads(report.read_text())
    doc["folds"][1]["model"]["cutoff"] += 1
    report.write_text(json.dumps(doc))
    assert oracle.check_eval(report, vuln, benign, 3, 0) != []


def test_child_peak_rss_excludes_the_benchmarks_own(tmp_path):
    held = bytearray(150 * 1024 * 1024)
    held[::4096] = b"\1" * len(held[::4096])
    rc, _, _, peak = workloads.run_process([sys.executable, "-c", "pass"], tmp_path,
                                           tmp_path / "log")
    assert rc == 0 and 0 < peak < 100
