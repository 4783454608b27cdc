"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The last criterion needs the published per-project name lists; point
FAVD_REPLICATION_DIR at a directory holding <Project>/vulnerable.txt and
<Project>/benign.txt (default: data/replication), otherwise it is skipped.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from bruteforce import oracle_rank_external, oracle_sweep, oracle_tune
from favd.cli import main as cli_main
from favd.corpus import LabeledCorpus, clean, load_lists, make_kfold
from favd.metrics import all_vulnerable_f2, f_beta, random_baseline_f2, roc
from favd.predictor import TunedModel, classify, classify_corpus
from favd.ranking import MinScorePolicy, Weight, rank, score_frequency
from favd.splitter import split
from favd.synth import SynthSpec, generate, write_corpus
from favd.tuner import SearchGrid, search_weights
from gridcells import grid_cells
from test_splitter import SAMPLE_WORDS

POLICY_ZERO = MinScorePolicy.at_least(0)
POLICY_ALL = MinScorePolicy.all_terms()


@contextmanager
def criterion(number, name: str):
    started = time.time()
    try:
        yield
    except BaseException as exc:
        verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[criterion {number}] {name}: {verdict} ({time.time() - started:.2f}s)")
        raise
    print(f"[criterion {number}] {name}: PASS ({time.time() - started:.2f}s)")


# --- 1 -----------------------------------------------------------------

PUBLISHED_THEORETICAL_F2 = {
    "Asterisk": (49, 10_102, 0.024),
    "FFmpeg": (184, 4_379, 0.174),
    "LibPNG": (31, 491, 0.240),
    "LibTIFF": (75, 522, 0.418),
    "Pidgin": (26, 6_722, 0.019),
    "VLC": (37, 2_699, 0.064),
    "loo": (402, 24_906, 0.075),
    "VDISC": (72_612, 932_741, 0.280),
}


def test_criterion_1_all_vulnerable_closed_form():
    with criterion(1, "all-vulnerable F2 closed form matches published table"):
        for name, (v, b, expected) in PUBLISHED_THEORETICAL_F2.items():
            got = float(all_vulnerable_f2(v, b))
            assert abs(got - expected) <= 0.0005, (name, got, expected)


# --- 2 -----------------------------------------------------------------


def test_criterion_2_random_baseline_closed_form():
    with criterion(2, "random-predictor F2 closed form matches quoted values"):
        assert abs(float(random_baseline_f2(0.072)) - 0.228) <= 0.0005
        assert abs(float(random_baseline_f2(0.016)) - 0.071) <= 0.0005


# --- 3 -----------------------------------------------------------------


def test_criterion_3_splitter_regression():
    with criterion(3, "splitter regression incl. 20 published sample words"):
        assert split("read_file") == ["read", "file"]
        assert len(split("png_push_read_chunk")) == 4
        assert len(SAMPLE_WORDS) == 20
        for word in SAMPLE_WORDS:
            assert word in split(f"pre_{word}_post"), word


# --- 4 -----------------------------------------------------------------


def _small_corpus(seed: int) -> LabeledCorpus:
    spec = SynthSpec(
        seed=seed, n_vulnerable=10, n_benign=15,
        planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=10,
        terms_per_name=(1, 3), signal_strength=0.6, vocab_overlap=0.5,
    )
    corpus, _ = generate(spec)
    return corpus


def _check_oracle_equivalence(policy: MinScorePolicy) -> None:
    started = time.time()
    weights = (
        Weight(1, 1), Weight(3, 2), Weight(2, 3), Weight(1, 10),
        Weight(10, 1), Weight(1, 1000), Weight(1000, 1),
    )
    grid = SearchGrid(cutoff_step=3, weights=weights)
    for seed in range(25):
        corpus = _small_corpus(1000 + seed)
        assert len(corpus.vulnerable) + len(corpus.benign) <= 50
        terms = {t for n in corpus.vulnerable | corpus.benign for t in split(n)}
        assert len(terms) <= 30
        best, cells = oracle_sweep(corpus, weights, 3, grid.thresholds,
                                   keep_all=policy == POLICY_ALL)
        trace = []
        result = search_weights(corpus, policy, grid, trace=trace)
        lib_cells = {
            (w.tag(), cell.cutoff, cell.threshold): cell.f2
            for w, counts in trace
            for cell in grid_cells(counts)
        }
        assert lib_cells == cells, f"cell table differs on seed {seed}"
        f2, w_index, cutoff, threshold = best
        assert result.train_f2 == f2
        assert result.model.weight == weights[w_index]
        assert result.model.cutoff == cutoff
        if cutoff:
            assert result.model.threshold == threshold
    assert time.time() - started < 10.0


def test_criterion_4_oracle_equivalence():
    with criterion(4, "exhaustive tuner equals brute-force oracle on 25 corpora"):
        _check_oracle_equivalence(POLICY_ZERO)


def test_criterion_4_oracle_equivalence_policy_none():
    with criterion(4, "exhaustive tuner equals brute-force oracle, policy none"):
        _check_oracle_equivalence(POLICY_ALL)


# --- 5 -----------------------------------------------------------------


def _suite_corpora() -> list[LabeledCorpus]:
    corpora = [
        clean(("read_file", "read_net"), ("write_file",)),
        clean(("danger_alpha", "danger_bravo", "danger_gamma"),
              ("safe_alpha", "safe_bravo", "calm_gamma")),
    ]
    for seed in (5, 6, 7):
        corpora.append(_small_corpus(seed))
    return corpora


def test_criterion_5_baseline_predictor_identity():
    with criterion(5, "all-vulnerable baseline equals predictor-derived F2 exactly"):
        for corpus in _suite_corpora():
            words = rank(score_frequency(corpus, Weight(1, 1)), POLICY_ALL)
            model = TunedModel(
                dangerous=words, cutoff=len(words.words), threshold=Fraction(0),
            )
            counts = classify_corpus(corpus, model)
            v, b = len(corpus.vulnerable), len(corpus.benign)
            assert f_beta(counts, 2) == all_vulnerable_f2(v, b), corpus


# --- 6 -----------------------------------------------------------------


def _roc_rows(out: Path, *argv: str) -> list[tuple[float, float, float]]:
    """(threshold, tpr, fpr) of each row that `favd roc ARGV --out OUT` writes for one cutoff."""
    assert cli_main(["roc", *argv, "--out", str(out)]) == 0
    return [tuple(map(float, line.split(",")[1:])) for line in out.read_text().splitlines()[1:]]


def test_criterion_6_roc_properties(tmp_path):
    with criterion(6, "ROC monotonicity, anchors, and cutoff monotonicity"):
        started = time.time()
        for seed in range(10):
            spec = SynthSpec(
                seed=seed, n_vulnerable=12, n_benign=20,
                planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=14,
                terms_per_name=(1, 3), signal_strength=0.7, vocab_overlap=0.5,
            )
            corpus, _ = generate(spec)
            words = rank(score_frequency(corpus, Weight(1, 1)), POLICY_ALL)
            vuln, benign = write_corpus(corpus, tmp_path / str(seed))
            rows = _roc_rows(tmp_path / str(seed) / "roc.csv", "--vuln", str(vuln),
                             "--benign", str(benign), "--weight", "1-1", "--policy", "none",
                             "--cutoffs", str(max(1, len(words.words) // 2)),
                             "--include-zero-endpoint")
            assert rows[0] == (1, 0, 0)
            assert rows[-1] == (0, 1, 1)
            for a, b in zip(rows, rows[1:]):
                assert a[0] > b[0]
                assert b[1] >= a[1] and b[2] >= a[2]

        import random as _random

        rng = _random.Random(99)
        vocabulary = [f"w{i}" for i in range(12)]
        for _ in range(200):
            words = tuple(
                (w, 12 - i) for i, w in enumerate(rng.sample(vocabulary, 8))
            )
            from favd.ranking import DangerousWordList

            dangerous = DangerousWordList(words=words, policy=POLICY_ALL)
            ident = "_".join(rng.sample(vocabulary, rng.randint(1, 4)))
            small = rng.randint(1, len(words))
            large = rng.randint(small, len(words))
            threshold = Fraction(rng.randint(0, 20), 20)
            pcts = []
            for cutoff in (small, large):
                model = TunedModel(
                    dangerous=dangerous, cutoff=cutoff, threshold=threshold,
                )
                pcts.append(classify(ident, model).percentage)
            assert pcts[1] >= pcts[0]
        assert time.time() - started < 5.0


# --- 7 -----------------------------------------------------------------


def test_criterion_7_separability_and_null():
    with criterion(7, "planted signal separates; null signal tracks baseline"):
        started = time.time()
        # perfectly separable: planted anchors in every vulnerable name,
        # class vocabularies disjoint
        spec = SynthSpec(
            seed=3, n_vulnerable=30, n_benign=30,
            planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=18,
            terms_per_name=(3, 3), signal_strength=1.0, vocab_overlap=0.0,
        )
        corpus, _ = generate(spec)
        for train, test in make_kfold(corpus, 2, seed=103).folds:
            result = search_weights(train, POLICY_ZERO, SearchGrid(cutoff_step=1))
            counts = classify_corpus(test, result.model)
            assert f_beta(counts, 2) == 1

        # no signal at all: tuned mean tracks the all-vulnerable mean
        grid = SearchGrid(cutoff_step=5)
        tuned_sum, base_sum, folds = Fraction(0), Fraction(0), 0
        for seed in range(20):
            spec = SynthSpec(
                seed=seed, n_vulnerable=150, n_benign=150,
                planted_dangerous=frozenset({"alpha"}), vocab_size=20,
                terms_per_name=(2, 3), signal_strength=0.0, vocab_overlap=1.0,
            )
            null_corpus, _ = generate(spec)
            for train, test in make_kfold(null_corpus, 2, seed=seed).folds:
                result = search_weights(train, POLICY_ZERO, grid)
                counts = classify_corpus(test, result.model)
                tuned_sum += f_beta(counts, 2)
                base_sum += all_vulnerable_f2(len(test.vulnerable), len(test.benign))
                folds += 1
        gap = abs(float(tuned_sum / folds) - float(base_sum / folds))
        assert gap <= 0.05, gap
        assert time.time() - started < 30.0


# --- 8 -----------------------------------------------------------------


def test_criterion_8_eval_reports_byte_identical(tmp_path):
    with criterion(8, "eval reports byte-identical across reruns"):
        spec = SynthSpec(
            seed=21, n_vulnerable=16, n_benign=32,
            planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=16,
            terms_per_name=(2, 3), signal_strength=0.8, vocab_overlap=0.3,
        )
        corpus, _ = generate(spec)
        data = tmp_path / "data"
        vuln, benign = write_corpus(corpus, data)
        args = ["eval", "--vuln", str(vuln), "--benign", str(benign),
                "--kfold", "4", "--seed", "17", "--cutoff-step", "2"]
        assert cli_main(args + ["--out-dir", str(tmp_path / "runA")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "runB")]) == 0
        for name in ("eval_report.json", "folds.csv"):
            a = (tmp_path / "runA" / name).read_bytes()
            b = (tmp_path / "runB" / name).read_bytes()
            assert a == b, name


# --- external-scorer path (structural coverage of criteria 4 to 6) ------


def test_criterion_external_adapter_drives_identical_path(tmp_path):
    with criterion("4-6 ext", "hand-authored score file drives rank/tune/classify"):
        import csv as _csv
        import random as _random

        from favd.ranking import load_external_scores
        from favd.tuner import find_best

        corpus = _small_corpus(42)
        terms = sorted({t for n in corpus.vulnerable | corpus.benign for t in split(n)})
        rng = _random.Random(7)
        scores = {t: Fraction(rng.randint(0, 100), 100) for t in terms}
        path = tmp_path / "scores.csv"
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow(["term", "score"])
            for term in terms:
                writer.writerow([term, f"{float(scores[term]):.2f}"])
        table = load_external_scores(path)

        # tuner equals the brute-force double loop on the external ranking
        for min_score in (None, Fraction(1, 2)):
            policy = POLICY_ALL if min_score is None else MinScorePolicy.at_least(min_score)
            words = rank(table, policy)
            assert [t for t, _ in words.words] == oracle_rank_external(scores, min_score)
            grid = SearchGrid(cutoff_step=2)
            best, cells = oracle_tune(corpus, [t for t, _ in words.words], 2,
                                      grid.thresholds)
            trace = []
            result = find_best(words, corpus, grid, trace=trace)
            lib_cells = {(c.cutoff, c.threshold): c.f2 for c in grid_cells(trace[0][1])}
            assert lib_cells == cells
            f2, cutoff, threshold = best
            assert (result.train_f2, result.model.cutoff) == (f2, cutoff)
            assert result.model.threshold == threshold

        # ROC anchors and monotonicity on the external list, and the same rates from a model
        # that `train --scores` saved
        words = rank(table, POLICY_ALL)
        cutoff = max(1, len(words.words) // 2)
        counts = roc(words, [cutoff], corpus)
        assert (counts.n_pos, counts.n_neg) == (len(corpus.vulnerable), len(corpus.benign))
        [(_, tps, fps)] = counts.columns()
        assert (tps[0], fps[0]) == (0, 0)
        assert list(tps) == sorted(tps) and list(fps) == sorted(fps)
        vuln, benign = write_corpus(corpus, tmp_path)
        assert cli_main(["train", "--vuln", str(vuln), "--benign", str(benign), "--scores",
                         str(path), "--policy", "none", "--out", str(tmp_path / "m.json")]) == 0
        rows = _roc_rows(tmp_path / "roc.csv", "--vuln", str(vuln), "--benign", str(benign),
                         "--model", str(tmp_path / "m.json"), "--cutoffs", str(cutoff),
                         "--include-zero-endpoint")
        assert rows == [(float(threshold), float(f"{t / counts.n_pos:.6f}"),
                         float(f"{f / counts.n_neg:.6f}"))
                        for threshold, t, f in zip(counts.thresholds, tps, fps)] + [(0, 1, 1)]

        # degenerate identity: full list, threshold 0 equals all-vulnerable
        model = TunedModel(
            dangerous=words, cutoff=len(words.words), threshold=Fraction(0),
        )
        counts = classify_corpus(corpus, model)
        assert f_beta(counts, 2) == all_vulnerable_f2(
            len(corpus.vulnerable), len(corpus.benign)
        )


# --- 9 -----------------------------------------------------------------

REPLICATION_DIR = Path(os.environ.get("FAVD_REPLICATION_DIR", "data/replication"))
TABLE_MIN0_F2 = {"LibPNG": 0.639, "Pidgin": 0.601, "Asterisk": 0.000}


def _replication_corpus(project: str) -> LabeledCorpus:
    base = REPLICATION_DIR / project
    return clean(*load_lists(base / "vulnerable.txt", base / "benign.txt"))


def test_criterion_9_replication_data_reproduction():
    with criterion(9, "published per-project scores (replication data)"):
        needed = [REPLICATION_DIR / p for p in TABLE_MIN0_F2]
        if not all(d.is_dir() for d in needed):
            pytest.skip(f"replication lists not present under {REPLICATION_DIR}")
        grid = SearchGrid()  # defaults: step 100, 0.05 thresholds, full weights
        for project, expected in TABLE_MIN0_F2.items():
            corpus = _replication_corpus(project)
            plan = make_kfold(corpus, 5, seed=0)
            fold_f2 = []
            top10_hits = 0
            for train, test in plan.folds:
                result = search_weights(train, POLICY_ZERO, grid)
                counts = classify_corpus(test, result.model)
                fold_f2.append(f_beta(counts, 2))
                if project == "LibPNG":
                    top10 = {t for t, _ in result.model.dangerous.words[:10]}
                    if {"png", "handle"} <= top10:
                        top10_hits += 1
            mean_f2 = float(sum(fold_f2) / len(fold_f2))
            tolerance = 0.02 if project == "Asterisk" else 0.10
            assert abs(mean_f2 - expected) <= tolerance, (project, mean_f2, expected)
            if project == "LibPNG":
                assert top10_hits >= 4, top10_hits
