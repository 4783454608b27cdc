from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from favd.corpus import LabeledCorpus, clean, make_kfold
from favd.errors import DataError
from favd.ranking import (
    MinScorePolicy,
    TermScoreTable,
    Weight,
    default_weight_grid,
    load_external_scores,
    rank,
    score_frequency,
    write_word_list_csv,
)
from favd.rational import MAX_EXPONENT, parse_fraction
from favd.splitter import split


def unique_terms(names) -> set[str]:
    return {term for name in names for term in split(name)}


def scores_of(table: TermScoreTable) -> dict:
    return dict(zip(table.terms, table.scores))


def keeps(policy: MinScorePolicy, score) -> bool:
    """The policy's exact comparison: the reference for rank's int-ceil filter."""
    return policy.threshold is None or score >= policy.threshold


class TestWeight:
    def test_validation(self):
        with pytest.raises(ValueError):
            Weight(0, 1)
        with pytest.raises(ValueError):
            Weight(1, -2)

    def test_equal_weights_compare_and_hash_alike(self):
        assert Weight(3, 2) == Weight(3, 2) != Weight(2, 3)
        assert {Weight(3, 2): "a"}[Weight(3, 2)] == "a"
        assert len({Weight(1, 1), Weight(1, 1), Weight(1, 2)}) == 2

    def test_parse(self):
        assert Weight.parse("3-2") == Weight(3, 2)
        assert Weight.parse("1000-1") == Weight(1000, 1)
        with pytest.raises(DataError):
            Weight.parse("3:2")

    def test_default_grid_covers_named_pairs(self):
        grid = default_weight_grid()
        tags = {w.tag() for w in grid}
        assert {"1-10", "3-4", "3-2", "10-1", "1000-1", "1-1000"} <= tags
        assert len(grid) == 38


class TestScoreFrequency:
    def test_unit_weights_hand_count(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(1, 1))
        assert scores_of(table) == {"read": 2, "file": 0, "net": 1, "write": -1}
        # Vulnerable-name counts 2, 1, 1, 0: more first, then text.
        assert toy_corpus.encoded.term_counts == (["read", "file", "net", "write"], [2, 1, 1, 0],
                                                  [0, 1, 0, 1])
        # So equal scores go to the higher vulnerable-name count, then to text.
        tied = TermScoreTable(table.terms, [0] * 4, Weight(1, 1))
        ranked = rank(tied, MinScorePolicy.all_terms()).words
        assert [t for t, _ in ranked] == ["read", "file", "net", "write"]

    def test_asymmetric_weights_hand_count(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(3, 2))
        assert scores_of(table) == {"read": 6, "file": 1, "net": 3, "write": -2}

    def test_empty_vulnerable_gives_nonpositive_scores(self):
        corpus = clean((), ("log_msg", "log_file"))
        table = score_frequency(corpus, Weight(2, 3))
        assert all(s <= 0 for s in table.scores)

    def test_repeated_term_in_one_name_counts_once(self):
        corpus = clean(("read_read",), ("x_y",))
        table = score_frequency(corpus, Weight(1, 1))
        assert scores_of(table)["read"] == 1

    def test_empty_corpus_is_an_error_and_one_of_termless_names_is_not(self):
        with pytest.raises(DataError, match="^cannot score an empty training corpus$"):
            score_frequency(LabeledCorpus(frozenset(), frozenset()), Weight(1, 1))
        # "__" has no terms and so no row, but it is a name: the table is empty, not an error.
        assert score_frequency(clean(("__",), ()), Weight(1, 1)).terms == []

    def test_table_covers_exactly_the_training_terms(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(1, 1))
        assert set(table.terms) == unique_terms(toy_corpus.vulnerable | toy_corpus.benign)
        # A k-fold train encoding shares the plan's vocabulary, which holds
        # the test chunk's terms too. "only" is in one name, so some fold's
        # train names (the other folds' test names) lack it, and that fold's
        # table must not score it.
        corpus = clean(("read_file", "read_net", "only_net"), ("write_file", "log_net", "log"))
        folds = list(make_kfold(corpus, 3, seed=0).folds)
        names = [test.vulnerable | test.benign for _, test in folds]
        train_names = [frozenset().union(*names[:i], *names[i + 1:]) for i in range(len(folds))]
        assert any("only" not in unique_terms(n) for n in train_names)
        for (train, _), n in zip(folds, train_names):
            assert "only" in train.vocabulary
            table = score_frequency(train, Weight(1, 1))
            assert sorted(table.terms) == sorted(unique_terms(n))


class TestRank:
    def test_at_least_zero_keeps_nonnegative(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(1, 1))
        words = rank(table, MinScorePolicy.at_least(0))
        assert [t for t, _ in words.words] == ["read", "net", "file"]

    def test_all_keeps_everything(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(1, 1))
        words = rank(table, MinScorePolicy.all_terms())
        assert [t for t, _ in words.words] == ["read", "net", "file", "write"]

    @pytest.mark.parametrize("score", [Fraction(-1, 10), Fraction(11, 10), 2])
    def test_external_table_rejects_a_score_outside_0_1(self, score):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            TermScoreTable(["read", "net"], [Fraction(1, 2), score])
        assert TermScoreTable(["net"], [score], Weight(1, 1)).scores == [score]

    def test_equal_policies_compare_and_hash_alike(self):
        assert MinScorePolicy.at_least(0) == MinScorePolicy.parse("zero") == MinScorePolicy(0)
        assert MinScorePolicy.all_terms() == MinScorePolicy.parse("none")
        assert MinScorePolicy.all_terms() != MinScorePolicy.at_least(0)
        policies = {MinScorePolicy.at_least(Fraction(1, 2)), MinScorePolicy.parse("0.5"),
                    MinScorePolicy.all_terms(), MinScorePolicy.parse("all")}
        assert len(policies) == 2

    def test_ranked_lists_compare_and_hash_by_value_and_are_read_only(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(1, 1))
        one, two = (rank(table, MinScorePolicy.at_least(0)) for _ in range(2))
        assert one == two and hash(one) == hash(two) and len(one.words) == 3
        assert one != rank(table, MinScorePolicy.all_terms())
        with pytest.raises(AttributeError):
            one.words = ()

    def test_empty_table_is_legal(self):
        table = TermScoreTable([], [], Weight(1, 1))
        assert rank(table, MinScorePolicy.all_terms()).words == ()

    def test_tie_break_prefers_vulnerable_count_then_text(self):
        # 'beta' and 'zeta' tie on score but zeta has more vulnerable hits.
        corpus = clean(("zeta_one", "zeta_two", "beta_three"), ("zeta_a", "alpha_b"))
        table = score_frequency(corpus, Weight(1, 1))
        assert scores_of(table)["zeta"] == 1 and scores_of(table)["beta"] == 1
        ordered = [t for t, _ in rank(table, MinScorePolicy.all_terms()).words]
        assert ordered.index("zeta") < ordered.index("beta")
        # equal score and equal vulnerable count: lexicographic
        assert ordered.index("one") < ordered.index("two")

    def test_scores_non_increasing(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(4, 3))
        words = rank(table, MinScorePolicy.all_terms()).words
        assert all(a[1] >= b[1] for a, b in zip(words, words[1:]))

    @given(st.integers(min_value=1, max_value=7))
    def test_scaling_weights_preserves_order(self, c):
        corpus = clean(("read_file", "read_net", "parse_read", "alloc_buf"),
                       ("write_file", "log_buf", "parse_log"))
        base = rank(score_frequency(corpus, Weight(2, 3)), MinScorePolicy.all_terms())
        scaled = rank(
            score_frequency(corpus, Weight(2 * c, 3 * c)), MinScorePolicy.all_terms()
        )
        assert [t for t, _ in base.words] == [t for t, _ in scaled.words]

    def test_raising_threshold_yields_score_prefix(self, toy_corpus):
        table = score_frequency(toy_corpus, Weight(1, 1))
        full = rank(table, MinScorePolicy.all_terms()).words
        previous_len = len(full)
        for bound in (-1, 0, 1, 2, 3):
            kept = rank(table, MinScorePolicy.at_least(bound)).words
            assert len(kept) <= previous_len
            assert kept == full[: len(kept)]
            previous_len = len(kept)

    def test_extreme_plus_weight_retains_vulnerable_term_set(self):
        corpus = clean(("read_file", "parse_net"),
                       ("read_log", "read_buf", "write_log", "file_dump"))
        words = rank(
            score_frequency(corpus, Weight(1000, 1)), MinScorePolicy.at_least(0)
        )
        assert {t for t, _ in words.words} == unique_terms(corpus.vulnerable)

    def test_extreme_minus_weight_retains_terms_absent_from_benign(self):
        corpus = clean(("read_file", "parse_net"),
                       ("read_log", "read_buf", "write_log", "file_dump"))
        words = rank(
            score_frequency(corpus, Weight(1, 1000)), MinScorePolicy.at_least(0)
        )
        assert {t for t, _ in words.words} == (
            unique_terms(corpus.vulnerable) - unique_terms(corpus.benign)
        )


@given(
    vuln=st.sets(st.sampled_from(["read_file", "read_net", "net_poll", "ui_draw", "log"]),
                 min_size=1),
    benign=st.sets(st.sampled_from(["write_file", "ui_draw_net", "log_msg", "poll"])),
    weight=st.builds(Weight, st.integers(1, 4), st.integers(1, 4)),
    threshold=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)
def test_policy_filter_equals_the_exact_comparison(vuln, benign, weight, threshold):
    """Frequency scores are compared with ceil(threshold); keeps() compares exactly."""
    table = score_frequency(clean(vuln, benign), weight)
    policy = MinScorePolicy.at_least(threshold)
    everything = rank(table, MinScorePolicy.all_terms()).words
    assert rank(table, policy).words == tuple(w for w in everything if keeps(policy, w[1]))


@given(
    vuln=st.sets(st.sampled_from(["read_file", "read_net", "net_poll", "ui_draw", "log"]),
                 min_size=1),
    benign=st.sets(st.sampled_from(["write_file", "ui_draw_net", "log_msg", "poll", "x_y"])),
    weight=st.builds(Weight, st.integers(1, 4), st.integers(1, 4)),
    threshold=st.sampled_from([-1, Fraction(-1, 2), 0, Fraction(1, 2), 3, None]),
)
def test_scoring_only_the_keepable_terms_ranks_as_full_scoring(vuln, benign, weight, threshold):
    """Above -1, terms that no vulnerable name holds are not scored, and nothing else moves."""
    corpus = clean(vuln, benign)
    policy = MinScorePolicy(None if threshold is None else Fraction(threshold))
    full, cut = score_frequency(corpus, weight), score_frequency(corpus, weight, policy)
    assert rank(cut, policy).words == rank(full, policy).words
    terms, v, _ = corpus.encoded.term_counts
    if threshold is not None and threshold > -1:
        vulnerable_count = dict(zip(terms, v))
        assert all(vulnerable_count[term] >= 1 for term in cut.terms)
        assert cut.terms == [t for t in terms if vulnerable_count[t] >= 1]
    else:
        assert cut == full


def test_a_bound_of_minus_one_keeps_a_term_no_vulnerable_name_holds():
    # "log" is in one benign name and no vulnerable one: V = 0, B = 1, score -1 at 1-1.
    corpus = clean(("read_file", "read_net"), ("log_file",))
    assert corpus.encoded.term_counts == (["read", "file", "net", "log"], [2, 1, 1, 0],
                                          [0, 1, 0, 1])
    at_minus_one = MinScorePolicy.at_least(-1)
    words = rank(score_frequency(corpus, Weight(1, 1), at_minus_one), at_minus_one).words
    assert ("log", -1) in words
    just_above = MinScorePolicy.at_least(Fraction(-99, 100))
    table = score_frequency(corpus, Weight(1, 1), just_above)
    assert table.terms == ["read", "file", "net"] and table.scores == [2, 0, 1]
    assert "log" not in dict(rank(table, just_above).words)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(-1.7976931348623157e308)
def test_every_float_repr_parses_exactly(x):
    """The exponent bound leaves room for every finite float, as a policy or a score."""
    assert parse_fraction(repr(x)) == Fraction(repr(x))
    assert MinScorePolicy.parse(repr(x)) == MinScorePolicy.at_least(Fraction(repr(x)))


def test_exponent_bound_is_checked_before_fraction():
    assert parse_fraction(f"1e{MAX_EXPONENT}") == 10**MAX_EXPONENT
    assert parse_fraction(f"1_0E-{MAX_EXPONENT}") == Fraction(10, 10**MAX_EXPONENT)
    for text in (f"1e{MAX_EXPONENT + 1}", "1e-1000000000", " 2.5E+99999999999 ",
                 "1e1_000_000_000"):
        with pytest.raises(ValueError, match="exponent"):
            parse_fraction(text)


class TestPolicy:
    def test_parse_spellings(self):
        assert MinScorePolicy.parse("none") == MinScorePolicy.all_terms()
        assert MinScorePolicy.parse("all") == MinScorePolicy.all_terms()
        assert MinScorePolicy.parse("zero") == MinScorePolicy.at_least(0)
        assert MinScorePolicy.parse("0.9") == MinScorePolicy.at_least(Fraction(9, 10))
        with pytest.raises(DataError):
            MinScorePolicy.parse("sometimes")

    def test_at_least_is_inclusive(self):
        policy = MinScorePolicy.at_least(0)
        assert keeps(policy, 0)
        assert not keeps(policy, -1)


class TestExternalScores:
    def test_load_and_filter(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("read,0.97\nget,0.12\n")
        table = load_external_scores(p)
        assert table.weight is None
        assert scores_of(table) == {"read": Fraction("0.97"), "get": Fraction("0.12")}
        assert table.terms == ["get", "read"]  # text order, whatever the file's
        words = rank(table, MinScorePolicy.at_least(Fraction("0.90")))
        assert [t for t, _ in words.words] == ["read"]

    def test_header_row_is_optional(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("term,score\nread,0.97\n")
        assert scores_of(load_external_scores(p)) == {"read": Fraction("0.97")}

    def test_out_of_range_score_rejected(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("x,1.5\n")
        with pytest.raises(DataError, match="outside"):
            load_external_scores(p)

    def test_duplicate_term_rejected(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("x,0.5\nx,0.6\n")
        with pytest.raises(DataError, match="duplicate"):
            load_external_scores(p)

    def test_error_cites_the_line_after_a_multi_line_field(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text('term,score\nwrite,0.5,"two\nlines"\nread,2\n')
        with pytest.raises(DataError, match=r"scores\.csv:4: score 2 outside"):
            load_external_scores(p)

    # The cited line is the file line where the record ends; U+2028 ends no file line.
    @pytest.mark.parametrize(("term", "line", "problem"), [
        ("", 3, "is empty"), ("two\nlines", 4, "holds a line break"),
        ("two\r\nlines", 4, "holds a line break"), ("two\rlines", 4, "holds a line break"),
        ("two\u2028lines", 3, "holds a line break"),
    ])
    def test_empty_or_multi_line_term_is_rejected(self, tmp_path, term, line, problem):
        # A term no name's terms could match would rank without effect.
        p = tmp_path / "scores.csv"
        p.write_text(f'term,score\nread,0.5\n"{term}",0.7\n', newline="")
        with pytest.raises(DataError, match=rf"scores\.csv:{line}: term {problem}"):
            load_external_scores(p)

    def test_blank_rows_are_skipped(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("term,score\n\n , \nread,0.5\n")
        assert scores_of(load_external_scores(p)) == {"read": Fraction("0.5")}

    def test_external_ties_break_lexicographically(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("zeta,0.5\nalpha,0.5\nmid,0.7\n")
        words = rank(load_external_scores(p), MinScorePolicy.all_terms())
        assert [t for t, _ in words.words] == ["mid", "alpha", "zeta"]

    def test_policy_threshold_outside_unit_interval_rejected(self, tmp_path):
        p = tmp_path / "scores.csv"
        p.write_text("read,0.97\n")
        with pytest.raises(DataError):
            rank(load_external_scores(p), MinScorePolicy.at_least(2))


def test_word_list_csv_export(tmp_path, toy_corpus):
    words = rank(score_frequency(toy_corpus, Weight(1, 1)), MinScorePolicy.all_terms())
    out = tmp_path / "words.csv"
    write_word_list_csv(words, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "rank,term,score"
    assert lines[1] == "1,read,2"
    assert lines[-1] == "4,write,-1"
