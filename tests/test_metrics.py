from fractions import Fraction
from itertools import product

import pytest

from favd.cli import main
from favd.corpus import clean
from favd.errors import DataError
from favd.metrics import (
    DEFAULT_THRESHOLD_STEP,
    all_vulnerable_f2,
    f_beta,
    precision,
    random_baseline_f2,
    recall,
    roc,
    threshold_values,
)
from favd.predictor import VULNERABLE, ConfusionCounts, TunedModel, classify
from favd.ranking import MinScorePolicy, Weight, rank, score_frequency

# Published per-dataset (vulnerable, benign, theoretical F2) triples.
PUBLISHED_ALL_VULNERABLE = {
    "Asterisk": (49, 10_102, 0.024),
    "FFmpeg": (184, 4_379, 0.174),
    "LibPNG": (31, 491, 0.240),
    "LibTIFF": (75, 522, 0.418),
    "Pidgin": (26, 6_722, 0.019),
    "VLC": (37, 2_699, 0.064),
    "loo": (402, 24_906, 0.075),
    "VDISC": (72_612, 932_741, 0.280),
}


class TestPrecisionRecall:
    def test_precision(self):
        assert precision(ConfusionCounts(tp=5, fp=5)) == Fraction(1, 2)

    def test_precision_zero_convention(self):
        assert precision(ConfusionCounts(tp=0, fp=0)) == 0

    def test_recall(self):
        assert recall(ConfusionCounts(tp=75, fn=0)) == 1

    def test_recall_zero_convention(self):
        assert recall(ConfusionCounts(tp=0, fn=0, fp=3)) == 0


class TestFBeta:
    def test_libtiff_all_vulnerable_counts(self):
        c = ConfusionCounts(tp=75, fp=522, fn=0)
        assert f_beta(c, 2) == Fraction(375, 897)
        assert float(f_beta(c, 2)) == pytest.approx(0.418, abs=0.0005)

    def test_zero_tp_gives_zero(self):
        assert f_beta(ConfusionCounts(tp=0, fp=3, fn=9), 2) == 0

    def test_balanced_counts_direct_substitution(self):
        # (1+1)*10 / ((1+1)*10 + 1*10 + 10) = 20/40
        assert f_beta(ConfusionCounts(tp=10, fp=10, fn=10), 1) == Fraction(1, 2)

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            f_beta(ConfusionCounts(tp=1), 0)

    def test_bounds_and_perfection(self):
        for tp, fp, fn in product(range(5), repeat=3):
            if tp + fp + fn == 0:
                continue
            value = f_beta(ConfusionCounts(tp=tp, fp=fp, fn=fn), 2)
            assert 0 <= value <= 1
            assert (value == 1) == (tp > 0 and fp == 0 and fn == 0)

    def test_f1_symmetric_in_fp_fn(self):
        for tp, a, b in product(range(1, 6), range(6), range(6)):
            c1 = f_beta(ConfusionCounts(tp=tp, fp=a, fn=b), 1)
            c2 = f_beta(ConfusionCounts(tp=tp, fp=b, fn=a), 1)
            assert c1 == c2

    def test_f2_penalizes_fn_at_least_as_much_as_fp(self):
        for tp, fp, fn in product(range(9), repeat=3):
            extra_fn = f_beta(ConfusionCounts(tp=tp, fp=fp, fn=fn + 1), 2)
            extra_fp = f_beta(ConfusionCounts(tp=tp, fp=fp + 1, fn=fn), 2)
            assert extra_fn <= extra_fp


class TestBaselines:
    @pytest.mark.parametrize("name", sorted(PUBLISHED_ALL_VULNERABLE))
    def test_all_vulnerable_matches_published_tables(self, name):
        v, b, expected = PUBLISHED_ALL_VULNERABLE[name]
        assert float(all_vulnerable_f2(v, b)) == pytest.approx(expected, abs=0.0005)

    def test_no_benign_names_is_perfect(self):
        assert all_vulnerable_f2(7, 0) == 1

    def test_no_vulnerable_names_is_zero(self):
        assert all_vulnerable_f2(0, 9) == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            all_vulnerable_f2(0, 0)

    def test_random_baseline_published_points(self):
        assert float(random_baseline_f2(0.072)) == pytest.approx(0.228, abs=0.0005)
        assert float(random_baseline_f2(0.016)) == pytest.approx(0.071, abs=0.0005)

    def test_random_baseline_endpoints(self):
        assert random_baseline_f2(0) == 0
        assert random_baseline_f2(1) == Fraction(5, 9)
        with pytest.raises(ValueError):
            random_baseline_f2(1.5)

    def test_all_vulnerable_equals_f_beta_identity(self):
        # Both baselines go through f_beta; the paper's closed forms, written out
        # here, check them exactly, down to V = 0, B = 0, p = 0 and p = 1.
        counts = [(v, b) for v in range(6) for b in range(6) if v + b]
        counts += [(v, b) for v, b, _ in PUBLISHED_ALL_VULNERABLE.values()]
        for v, b in counts:
            assert all_vulnerable_f2(v, b) == Fraction(5 * v, 5 * v + b), (v, b)
        quoted = [Fraction("0.072"), Fraction("0.016")]
        for p in [Fraction(v, v + b) for v, b in counts] + quoted:
            assert random_baseline_f2(p) == Fraction(5, 2) * p / (4 * p + Fraction(1, 2)), p


def _curves(counts):
    """A `roc` record as (cutoff, [(threshold, TPR, FPR), ...]) per cutoff, in Fractions."""
    return [(cutoff, [(threshold, Fraction(t, counts.n_pos), Fraction(f, counts.n_neg))
                      for threshold, t, f in zip(counts.thresholds, tps, fps)])
            for cutoff, tps, fps in counts.columns()]


class TestRoc:
    def _ranked(self, corpus):
        return rank(score_frequency(corpus, Weight(1, 1)), MinScorePolicy.all_terms())

    def test_threshold_one_anchors_origin(self, separable_corpus):
        [(_, points)] = _curves(roc(self._ranked(separable_corpus), [3], separable_corpus))
        assert points[0] == (1, 0, 0)

    def test_zero_endpoint_only_when_flagged(self, separable_corpus, tmp_path):
        counts = roc(self._ranked(separable_corpus), [3], separable_corpus)
        assert list(counts.thresholds) == sorted(counts.thresholds, reverse=True)
        assert all(threshold > 0 for threshold in counts.thresholds)
        # The command line writes the (0, 1, 1) anchor only when asked to.
        for label, names in (("v", separable_corpus.vulnerable), ("b", separable_corpus.benign)):
            (tmp_path / f"{label}.txt").write_text("".join(f"{name}\n" for name in names))
        argv = ["roc", "--vuln", str(tmp_path / "v.txt"), "--benign", str(tmp_path / "b.txt"),
                "--weight", "1-1", "--policy", "none", "--cutoffs", "3"]
        assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
        assert main(argv + ["--include-zero-endpoint", "--out", str(tmp_path / "flagged.csv")]) == 0
        plain = (tmp_path / "plain.csv").read_text().splitlines()
        assert plain[1:] == [f"3,{float(threshold)},{float(tpr):.6f},{float(fpr):.6f}"
                             for threshold, tpr, fpr in _curves(counts)[0][1]]
        flagged = (tmp_path / "flagged.csv").read_text().splitlines()
        assert flagged == plain + ["3,0.0,1.000000,1.000000"]

    def test_rates_monotone_as_threshold_decreases(self, separable_corpus):
        [(_, points)] = _curves(roc(self._ranked(separable_corpus), [2], separable_corpus))
        for a, b in zip(points, points[1:]):
            assert a[0] > b[0]
            assert b[1] >= a[1]
            assert b[2] >= a[2]

    def test_five_name_toy_curve_matches_hand_enumeration(self):
        # Scores: read +2, net +2-1, file +1, others -1, so the top-2 words
        # are {read, net} (net beats file on vulnerable-name count).
        # Percentages at cutoff 2: net_read 1, net_read_file 2/3,
        # net_dump 1/2, write_log 0, alloc 0.
        corpus = clean(("net_read_file", "net_read"), ("net_dump", "write_log", "alloc"))
        words = rank(score_frequency(corpus, Weight(1, 1)), MinScorePolicy.all_terms())
        assert [t for t, _ in words.words][:2] == ["read", "net"]
        counts = roc(words, [2], corpus, thresholds=(
            Fraction(1), Fraction(3, 4), Fraction(3, 5), Fraction(1, 2), Fraction(1, 4),
        ))
        expected = [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(3, 4), Fraction(1, 2), Fraction(0)),  # only pct 1 passes
            (Fraction(3, 5), Fraction(1), Fraction(0)),     # 2/3 > 3/5 joins
            (Fraction(1, 2), Fraction(1), Fraction(0)),     # 1/2 not > 1/2
            (Fraction(1, 4), Fraction(1), Fraction(1, 3)),  # net_dump crosses
        ]
        assert (counts.n_pos, counts.n_neg) == (2, 3)
        assert _curves(counts) == [(2, expected)]

    def test_roc_agrees_with_classifier_counts(self, separable_corpus):
        words = self._ranked(separable_corpus)
        [(_, points)] = _curves(roc(words, [2], separable_corpus))
        n_pos = len(separable_corpus.vulnerable)
        n_neg = len(separable_corpus.benign)
        for threshold, tpr, fpr in points:
            model = TunedModel(
                dangerous=words, cutoff=2, threshold=threshold,
            )
            tp = sum(classify(n, model).label == VULNERABLE for n in separable_corpus.vulnerable)
            fp = sum(classify(n, model).label == VULNERABLE for n in separable_corpus.benign)
            assert tpr == Fraction(tp, n_pos)
            assert fpr == Fraction(fp, n_neg)

    def test_many_cutoffs_in_one_call_equal_single_calls(self, separable_corpus):
        words = self._ranked(separable_corpus)
        cutoffs = [3, 1, 3, len(words.words) + 5]
        counts = roc(words, cutoffs, separable_corpus)
        assert list(counts.cutoffs) == cutoffs
        singles = [roc(words, [cutoff], separable_corpus) for cutoff in cutoffs]
        assert list(counts.columns()) == [column for one in singles for column in one.columns()]
        (_, *past_end), (_, *full) = roc(
            words, [len(words.words) + 5, len(words.words)], separable_corpus).columns()
        assert past_end == full

    def test_one_sided_corpus_rejected(self):
        corpus = clean(("read_file",), ())
        words = rank(score_frequency(corpus, Weight(1, 1)), MinScorePolicy.all_terms())
        with pytest.raises(DataError):
            roc(words, [1], corpus)

    @pytest.mark.parametrize("threshold", [Fraction(-1, 4), Fraction(5, 4)])
    def test_threshold_outside_unit_interval_rejected(self, separable_corpus, threshold):
        with pytest.raises(ValueError):
            roc(self._ranked(separable_corpus), [3], separable_corpus, thresholds=(threshold,))

    def test_default_threshold_grid(self):
        grid = threshold_values(DEFAULT_THRESHOLD_STEP)
        assert len(grid) == 21
        assert grid[0] == 0 and grid[-1] == 1
        assert grid[1] == Fraction(1, 20)

