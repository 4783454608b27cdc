from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from favd.cli import main
from favd.corpus import LabeledCorpus, clean
from favd.metrics import f_beta, roc
from favd.predictor import (
    BENIGN,
    VULNERABLE,
    ConfusionCounts,
    TunedModel,
    classify,
    classify_corpus,
    count_flagged,
)
from favd.model_io import load_model, model_document, save_model
from favd.ranking import (
    DangerousWordList,
    MinScorePolicy,
    TermScoreTable,
    Weight,
    rank,
    score_frequency,
)
from favd.splitter import split
from favd.tuner import SearchGrid, find_best
from gridcells import grid_cells


def _model(words, cutoff, threshold) -> TunedModel:
    dangerous = DangerousWordList(
        words=tuple((w, len(words) - i) for i, w in enumerate(words)),
        policy=MinScorePolicy.all_terms(),
        weight=Weight(1, 1),
    )
    return TunedModel(
        dangerous=dangerous,
        cutoff=cutoff,
        threshold=Fraction(str(threshold)),
    )


class TestClassify:
    def test_half_overlap_above_threshold(self):
        model = _model(["read", "net"], cutoff=2, threshold=0.4)
        pred = classify("read_file", model)
        assert pred.label == VULNERABLE
        assert pred.percentage == Fraction(1, 2)
        assert pred.matched_terms == {"read"}

    def test_no_overlap_is_benign(self):
        model = _model(["read", "net"], cutoff=2, threshold=0.4)
        pred = classify("write_log", model)
        assert pred.label == BENIGN
        assert pred.percentage == 0

    def test_threshold_zero_flags_any_match(self):
        model = _model(["read", "net"], cutoff=2, threshold=0.0)
        assert classify("read_buffer_list_head", model).label == VULNERABLE

    def test_strict_inequality_at_threshold_one(self):
        model = _model(["read"], cutoff=1, threshold=1.0)
        assert classify("read", model).label == BENIGN

    def test_separator_only_identifier_is_benign(self):
        model = _model(["read"], cutoff=1, threshold=0.0)
        pred = classify("_", model)
        assert pred.label == BENIGN
        assert pred.percentage == 0

    def test_cutoff_limits_matching(self):
        model = _model(["read", "net"], cutoff=1, threshold=0.0)
        assert classify("net_io", model).label == BENIGN
        assert classify("read_io", model).label == VULNERABLE

    def test_label_matches_percentage_rule(self):
        model = _model(["a", "b", "c"], cutoff=2, threshold=0.5)
        for ident in ("a_b", "a_x", "x_y", "a", "c"):
            pred = classify(ident, model)
            assert (pred.label == VULNERABLE) == (pred.percentage > model.threshold)


class TestModelValidation:
    def test_cutoff_must_fit_list(self):
        # 4 is the word list record's field count: the check must read the words' length.
        for cutoff in (2, 0, 4):
            with pytest.raises(ValueError):
                _model(["read"], cutoff=cutoff, threshold=0.0)

    def test_threshold_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError):
            _model(["read"], cutoff=1, threshold=1.5)
        with pytest.raises(ValueError):
            _model(["read"], cutoff=1, threshold=-0.25)

    def test_empty_list_needs_cutoff_zero(self):
        dangerous = DangerousWordList(words=(), policy=MinScorePolicy.all_terms())
        model = TunedModel(
            dangerous=dangerous, cutoff=0, threshold=Fraction(1)
        )
        assert classify("read_file", model).label == BENIGN


class TestClassifyCorpus:
    def test_perfect_model(self, separable_corpus):
        words = rank(
            score_frequency(separable_corpus, Weight(1, 1)), MinScorePolicy.at_least(0)
        )
        model = TunedModel(
            dangerous=words, cutoff=1, threshold=Fraction(0),
        )
        counts = classify_corpus(separable_corpus, model)
        assert counts == ConfusionCounts(tp=3, fp=0, fn=0, tn=3)

    def test_empty_dangerous_list_predicts_all_benign(self, separable_corpus):
        dangerous = DangerousWordList(words=(), policy=MinScorePolicy.at_least(0))
        model = TunedModel(
            dangerous=dangerous, cutoff=0, threshold=Fraction(1)
        )
        counts = classify_corpus(separable_corpus, model)
        assert counts == ConfusionCounts(
            tp=0, fp=0, fn=len(separable_corpus.vulnerable), tn=len(separable_corpus.benign)
        )

    def test_three_name_hand_tally(self):
        corpus = clean(("read_file", "net_poll"), ("write_log",))
        model = _model(["read", "write"], cutoff=2, threshold=0.4)
        # read_file: 1/2 > 0.4 -> TP; net_poll: 0 -> FN; write_log: 1/2 -> FP
        counts = classify_corpus(corpus, model)
        assert counts == ConfusionCounts(tp=1, fp=1, fn=1, tn=0)

    def test_counts_respect_class_totals(self, toy_corpus):
        model = _model(["read"], cutoff=1, threshold=0.2)
        counts = classify_corpus(toy_corpus, model)
        assert counts.tp + counts.fn == len(toy_corpus.vulnerable)
        assert counts.fp + counts.tn == len(toy_corpus.benign)

    def test_input_order_does_not_change_counts(self):
        names_v = ("read_file", "net_poll", "parse_hdr")
        names_b = ("write_log", "open_file")
        a = clean(names_v, names_b)
        b = clean(tuple(reversed(names_v)), tuple(reversed(names_b)))
        model = _model(["read", "parse", "open"], cutoff=3, threshold=0.3)
        assert classify_corpus(a, model) == classify_corpus(b, model)


WORDS = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
identifier_strategy = st.lists(
    st.sampled_from(WORDS), min_size=1, max_size=4
).map("_".join)


@given(
    ident=identifier_strategy,
    cutoff_pair=st.tuples(
        st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6)
    ),
)
def test_growing_cutoff_never_lowers_percentage(ident, cutoff_pair):
    small, large = sorted(cutoff_pair)
    low = classify(ident, _model(WORDS, cutoff=small, threshold=0.5))
    high = classify(ident, _model(WORDS, cutoff=large, threshold=0.5))
    assert high.percentage >= low.percentage


@given(
    idents=st.lists(identifier_strategy, min_size=1, max_size=8),
    thresholds=st.tuples(
        st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=20)
    ),
)
def test_higher_threshold_shrinks_predicted_set(idents, thresholds):
    t_low, t_high = sorted(Fraction(t, 20) for t in thresholds)
    model_low = _model(WORDS, cutoff=3, threshold=t_low)
    model_high = _model(WORDS, cutoff=3, threshold=t_high)
    flagged_low = {i for i in idents if classify(i, model_low).label == VULNERABLE}
    flagged_high = {i for i in idents if classify(i, model_high).label == VULNERABLE}
    assert flagged_high <= flagged_low


# classify() against the rule written with Fractions, as the paper states it.
RULE_WORDS = ["read", "net", "x86", "données", "ⅰ", "Buf", "a"]
rule_name = st.one_of(
    st.sampled_from(["_", "__", "___"]),
    st.text(alphabet=st.sampled_from("aB_9éⅰǅ"), min_size=1, max_size=8),
    st.builds(
        lambda words, joiner: joiner.join(words),
        st.lists(st.sampled_from(RULE_WORDS + ["file", "Poll", "2"]), min_size=1, max_size=5),
        st.sampled_from(["_", "", "__"]),
    ),
)
rule_threshold = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.builds(Fraction, st.integers(0, 7), st.just(7)),
)


def _textbook(name: str, words: list[str], threshold: Fraction):
    terms = set(split(name))
    matched = terms & set(words)
    percentage = Fraction(len(matched), len(terms)) if terms else Fraction(0)
    return (VULNERABLE if percentage > threshold else BENIGN), percentage, matched


@settings(max_examples=500)
@given(name=rule_name, cutoff=st.integers(0, len(RULE_WORDS)), threshold=rule_threshold)
@example(name="__", cutoff=0, threshold=Fraction(0))
@example(name="read_net", cutoff=1, threshold=Fraction(1, 2))
@example(name="read", cutoff=1, threshold=Fraction(1))
def test_classify_matches_the_fraction_rule(name, cutoff, threshold):
    model = _model(RULE_WORDS[:cutoff], cutoff=cutoff, threshold=threshold)
    label, percentage, matched = _textbook(name, RULE_WORDS[:cutoff], threshold)
    pred = classify(name, model)
    assert pred.identifier == name
    assert pred.label == label
    assert pred.percentage == percentage
    assert pred.matched_terms == matched


def test_predict_rows_format_the_exact_percentage(tmp_path):
    """Each CSV row shows float(percentage) to six places, as the Fraction rule gives it."""
    names = ["_", "a", "read_net_file", "readNetFilePoll", "x86_a_b_c_d_e_f", "ⅰ_données",
             "Buf_read_net_x86_a_poll_file", "net2", "readNetFile2", "X86buf", "write_log",
             ] + [f"read_{'n' * i}_a" for i in range(9)]
    names_path = tmp_path / "names.txt"
    names_path.write_text("\n".join(names) + "\n", encoding="utf-8")
    for threshold in (Fraction(0), Fraction(2, 7), Fraction(1, 3), Fraction(1)):
        model_path = tmp_path / "model.json"
        save_model(model_document(_model(RULE_WORDS, 5, threshold), Fraction(0)), model_path)
        saved = load_model(model_path).threshold
        assert saved == threshold  # 2/7 and 1/3 are saved as fraction text
        out = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--names", str(names_path),
                     "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        expected = []
        for name in names:
            label, percentage, matched = _textbook(name, RULE_WORDS[:5], saved)
            expected.append(f"{name},{label},{float(percentage):.6f},{';'.join(sorted(matched))}")
        assert rows == expected


# Batch paths (count_flagged, classify_corpus, roc, find_best) against a loop
# of classify().
KERNEL_WORDS = ["alpha", "Bravo", "charlie", "x1", "y", "alpha2", "delta", "echo", "fox",
                "golf", "hotel", "india", "juliet", "kilo"]
KERNEL_TERMS = sorted({term for word in KERNEL_WORDS for term in split(word)})
KERNEL_THRESHOLDS = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                     Fraction(2, 3), Fraction(1))
kernel_name = st.one_of(
    st.sampled_from(["__", "___"]),
    st.builds(
        lambda words, joiner: joiner.join(words),
        st.lists(st.sampled_from(KERNEL_WORDS), min_size=1, max_size=12, unique=True),
        st.sampled_from(["_", "_", ""]),
    ),
)
kernel_corpus = st.builds(
    clean,
    st.sets(kernel_name, min_size=1, max_size=8),
    st.sets(kernel_name, max_size=8),
)
# External tables: "absent" and "nowhere" are in no name, so the first table
# ranks no term of any corpus and the second ranks every one.
ABSENT = {"absent": Fraction(9, 10), "nowhere": Fraction(1, 3)}
external_table = st.one_of(
    st.just(ABSENT),
    st.just(dict(ABSENT, **{term: Fraction(i % 5, 4) for i, term in enumerate(KERNEL_TERMS)})),
    st.dictionaries(st.sampled_from(KERNEL_TERMS + sorted(ABSENT)),
                    st.builds(Fraction, st.integers(0, 6), st.just(6)), max_size=8),
).map(lambda scores: TermScoreTable(list(scores), list(scores.values())))
kernel_thresholds = st.lists(
    st.builds(lambda k, n: Fraction(min(k, n), n), st.integers(0, 13), st.integers(1, 13)),
    min_size=1, max_size=6,
).map(lambda extra: tuple(sorted(set(KERNEL_THRESHOLDS + tuple(extra)))))


def _looped_counts(corpus: LabeledCorpus, model: TunedModel) -> ConfusionCounts:
    tp = sum(classify(name, model).label == VULNERABLE for name in corpus.vulnerable)
    fp = sum(classify(name, model).label == VULNERABLE for name in corpus.benign)
    return ConfusionCounts(tp, fp, len(corpus.vulnerable) - tp, len(corpus.benign) - fp)


def _rule(words: DangerousWordList, cutoff: int, threshold: Fraction) -> TunedModel:
    """The model of the first `cutoff` words; cutoff 0 or past the end is allowed."""
    top = DangerousWordList(words=words.words[:cutoff], policy=words.policy)
    return TunedModel(dangerous=top, cutoff=len(top.words), threshold=threshold)


@settings(max_examples=80, deadline=None)
@given(corpus=kernel_corpus, weight=st.sampled_from([Weight(1, 1), Weight(2, 1), Weight(1, 3)]),
       table=external_table, thresholds=kernel_thresholds)
@example(corpus=clean(("alpha_Bravo_charlie_x1_y_delta_echo_fox_golf_hotel_india_juliet",
                       "alpha"), ("kilo_alpha2",)),
         weight=Weight(1, 1), table=TermScoreTable(list(ABSENT), list(ABSENT.values())),
         thresholds=KERNEL_THRESHOLDS)
def test_batch_counts_equal_classify_loop(corpus, weight, table, thresholds):
    lists = [rank(score_frequency(corpus, weight), MinScorePolicy.parse(policy))
             for policy in ("zero", "none", "1/2", "-3/2")]
    lists.append(rank(table, MinScorePolicy.all_terms()))
    grid = SearchGrid(cutoff_step=2, thresholds=thresholds)
    for words in lists:
        # Every cutoff from 0 to past the end of the list, in one call.
        cutoffs = list(range(len(words.words) + 3))
        tp, fp = count_flagged(words, corpus, cutoffs, thresholds)
        for i, threshold in enumerate(thresholds):
            for j, cutoff in enumerate(cutoffs):
                counts = _looped_counts(corpus, _rule(words, cutoff, threshold))
                assert (tp[i][j], fp[i][j]) == (counts.tp, counts.fp), (threshold, cutoff)
                if cutoff <= len(words.words) and (cutoff or not words.words):
                    model = TunedModel(dangerous=words, cutoff=cutoff, threshold=threshold)
                    assert classify_corpus(corpus, model) == counts
        trace = []
        find_best(words, corpus, grid, trace=trace)
        for cell in grid_cells(trace[0][1]):
            counts = _looped_counts(corpus, _rule(words, cell.cutoff, cell.threshold))
            assert cell.counts == counts
            assert cell.f2 == f_beta(counts, 2)
        if not corpus.benign:
            continue
        for cutoff in range(1, len(words.words) + 3):
            for point in next(roc(words, [cutoff], corpus, thresholds=thresholds)).points:
                counts = _looped_counts(corpus, _rule(words, cutoff, point.threshold))
                assert point.tpr == Fraction(counts.tp, len(corpus.vulnerable))
                assert point.fpr == Fraction(counts.fp, len(corpus.benign))
