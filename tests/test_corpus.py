from collections import Counter
from itertools import chain

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import favd.corpus
from favd.corpus import (
    EncodedCorpus,
    _Group,
    LabeledCorpus,
    clean,
    load_csv,
    load_lists,
    make_kfold,
    make_leave_one_out,
)
from favd.errors import DataError, InfeasibleError
from favd.predictor import classify_corpus
from favd.ranking import MinScorePolicy, Weight
from favd.tuner import SearchGrid, search_weights


class TestLoadLists:
    def test_reads_lines_in_file_order(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\nb\n")
        (tmp_path / "b.txt").write_text("c\n")
        assert load_lists(tmp_path / "v.txt", tmp_path / "b.txt") == (["a", "b"], ["c"])

    def test_blank_lines_dropped(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\n\nb\n")
        (tmp_path / "b.txt").write_text("\n\n")
        assert load_lists(tmp_path / "v.txt", tmp_path / "b.txt") == (["a", "b"], [])

    def test_crlf_and_trailing_whitespace(self, tmp_path):
        (tmp_path / "v.txt").write_bytes(b"a \r\nb\t\r\n")
        (tmp_path / "b.txt").write_bytes(b"c\r\n")
        vulnerable, _ = load_lists(tmp_path / "v.txt", tmp_path / "b.txt")
        assert vulnerable == ["a", "b"]

    def test_every_splitlines_separator_ends_a_name(self, tmp_path):
        # Each of str.splitlines' separators, trailing whitespace before and
        # after one (\x1f is whitespace but no separator), and blank lines.
        text = ("a\rb\r\nc\vd\fe\x1cf\x1dg\x1eh\x85i\u2028j\u2029k\n"
                " l \t\v \f\r\n\x85m\x1f\nn\x1fo\u2029\u2029p")
        (tmp_path / "v.txt").write_bytes(text.encode("utf-8"))
        (tmp_path / "b.txt").write_bytes(b"")
        vulnerable, benign = load_lists(tmp_path / "v.txt", tmp_path / "b.txt")
        assert vulnerable == [*"abcdefghijk", " l", "m", "n\x1fo", "p"]
        assert benign == []

    def test_missing_file_mentions_path(self, tmp_path):
        (tmp_path / "v.txt").write_text("a\n")
        with pytest.raises(DataError, match="nope.txt"):
            load_lists(tmp_path / "v.txt", tmp_path / "nope.txt")

    def test_bad_encoding_mentions_path(self, tmp_path):
        (tmp_path / "v.txt").write_bytes(b"\xff\xfe\x00bad")
        (tmp_path / "b.txt").write_text("c\n")
        with pytest.raises(DataError, match="v.txt"):
            load_lists(tmp_path / "v.txt", tmp_path / "b.txt")


class TestLoadCsv:
    def test_two_column_corpus(self, tmp_path):
        p = tmp_path / "c.csv"
        # A row whose fields are all blank is skipped.
        p.write_text("name,label\n\nread_file,vulnerable\n , \nlog_msg,benign\n")
        assert load_csv(p) == (["read_file"], ["log_msg"])

    def test_header_required(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("read_file,vulnerable\n")
        with pytest.raises(DataError, match="header"):
            load_csv(p)

    def test_unknown_label_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("name,label\nread_file,dangerous\n")
        with pytest.raises(DataError, match="dangerous"):
            load_csv(p)

    def test_error_cites_the_line_after_a_multi_line_field(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text('name,label\nread_file,vulnerable,"two\nlines"\nlog_msg,benign\nbad,oops\n')
        with pytest.raises(DataError, match=r"c\.csv:5: unknown label 'oops'"):
            load_csv(p)

    # The cited line is the file line where the record ends; U+2028 ends no file line.
    @pytest.mark.parametrize(("name", "line"), [("two\nlines", 4), ("two\r\nlines", 4),
                                                ("two\rlines", 4), ("two\u2028lines", 3)])
    def test_name_with_a_line_break_is_rejected(self, tmp_path, name, line):
        # Only names that a list file could hold, one per line, are read.
        p = tmp_path / "c.csv"
        p.write_text(f'name,label\nread_file,vulnerable\n"{name}",benign\n', newline="")
        with pytest.raises(DataError, match=rf"c\.csv:{line}: name holds a line break"):
            load_csv(p)

    def test_empty_name_is_rejected(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("name,label\nread_file,vulnerable\n ,benign\n")
        with pytest.raises(DataError, match=r"c\.csv:3: name is empty"):
            load_csv(p)


class TestLabeledCorpus:
    def test_overlapping_sets_are_rejected(self):
        with pytest.raises(ValueError, match="must be disjoint"):
            LabeledCorpus(frozenset({"f", "g"}), frozenset({"g"}))

    @pytest.mark.parametrize("side", ["vulnerable", "benign"])
    def test_empty_name_is_rejected(self, side):
        sets = {"vulnerable": frozenset({"f"}), "benign": frozenset({"h"})}
        sets[side] |= {""}
        with pytest.raises(ValueError, match="must be non-empty"):
            LabeledCorpus(**sets)


class TestClean:
    def test_dedupe_and_overlap_to_vulnerable(self):
        out = clean(("f", "f", "g"), ("g", "h"))
        assert out.vulnerable == {"f", "g"}
        assert out.benign == {"h"}

    def test_total_overlap_empties_benign(self):
        out = clean(("x",), ("x",))
        assert out.vulnerable == {"x"}
        assert out.benign == frozenset()

    def test_both_empty_is_an_error(self):
        with pytest.raises(DataError):
            clean((), ())

    def test_libtiff_shaped_overlap_resolution(self):
        # 75 vulnerable and 522 benign survivors with 8 names moved over.
        shared = [f"shared_{i}" for i in range(8)]
        vuln = [f"vuln_{i}" for i in range(67)] + shared
        benign = [f"benign_{i}" for i in range(522)] + shared
        out = clean(vuln, benign)
        assert set(shared) <= out.vulnerable
        assert len(out.vulnerable) == 75
        assert len(out.benign) == 522

    @given(
        st.lists(st.sampled_from("abcdefgh"), max_size=12),
        st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=12),
    )
    def test_clean_is_idempotent_and_disjoint(self, vuln, benign):
        once = clean(vuln, benign)
        assert not once.vulnerable & once.benign
        twice = clean(sorted(once.vulnerable), sorted(once.benign))
        assert (twice.vulnerable, twice.benign) == (once.vulnerable, once.benign)


def _numbered_corpus(n_vuln: int, n_benign: int) -> LabeledCorpus:
    return LabeledCorpus(
        vulnerable=frozenset(f"v{i}" for i in range(n_vuln)),
        benign=frozenset(f"b{i}" for i in range(n_benign)),
    )


def _union(corpora) -> LabeledCorpus:
    """`clean` of the corpora's union: the names a fold's train side must encode."""
    return clean(chain.from_iterable(c.vulnerable for c in corpora),
                 chain.from_iterable(c.benign for c in corpora))


def test_fold_plans_build_each_fold_when_iterated(live_corpora):
    corpus = _numbered_corpus(8, 12)
    before, encodings, groups = live_corpora(), live_corpora(EncodedCorpus), live_corpora(_Group)
    kfold = make_kfold(corpus, 4, seed=0)
    a, b, c = clean(("a1",), ("a2",)), clean(("b1",), ("b2",)), clean(("c1",), ("c2",))
    loo = make_leave_one_out([a, b, c])
    assert live_corpora() == before + 3  # only a, b and c
    assert live_corpora(EncodedCorpus) == encodings  # no fold is built yet
    assert live_corpora(_Group) == groups + 8 + 6  # each plan's groups, encoded
    folds = iter(kfold.folds)
    fold = next(folds)
    assert isinstance(fold[0], EncodedCorpus) and isinstance(fold[1], LabeledCorpus)
    assert live_corpora() == before + 4  # the test side; the train side holds no name set
    assert live_corpora(EncodedCorpus) == encodings + 2  # the joined train and test sides
    del fold
    assert live_corpora() == before + 3
    assert live_corpora(EncodedCorpus) == encodings
    assert len(list(folds)) == 3
    # A project's test side is a new record over the project's own sets, which keeps its encoding.
    loo_folds = iter(loo.folds)
    train, test = next(loo_folds)
    assert test == a and test is not a and "encoded" not in vars(a)
    assert test.vulnerable is a.vulnerable and test.benign is a.benign
    assert train.vocabulary is test.encoded.vocabulary
    assert live_corpora() == before + 4
    del train, test
    assert len(list(loo_folds)) == 2
    assert list(kfold.folds) == [] and list(loo.folds) == []  # read once


class TestKfold:
    def test_exact_stratification(self):
        plan = make_kfold(_numbered_corpus(10, 90), k=5, seed=1)
        for _, test in plan.folds:
            assert len(test.vulnerable) == 2
            assert len(test.benign) == 18

    def test_same_seed_reproduces_plan(self):
        corpus = _numbered_corpus(13, 40)
        a = make_kfold(corpus, 4, seed=9)
        b = make_kfold(corpus, 4, seed=9)
        assert list(a.folds) == list(b.folds)

    def test_different_seed_changes_plan(self):
        corpus = _numbered_corpus(13, 40)
        one, two = make_kfold(corpus, 4, seed=1), make_kfold(corpus, 4, seed=2)
        assert list(one.folds) != list(two.folds)

    def test_folds_partition_the_corpus(self):
        corpus = _numbered_corpus(13, 41)
        folds = list(make_kfold(corpus, 4, seed=3).folds)
        tests = [test for _, test in folds]
        seen_v, seen_b = set(), set()
        for test in tests:
            assert not seen_v & test.vulnerable and not seen_b & test.benign
            seen_v |= test.vulnerable
            seen_b |= test.benign
        assert seen_v == corpus.vulnerable
        assert seen_b == corpus.benign
        # Each train side encodes the rest: the corpus less its own test side.
        for i, (train, test) in enumerate(folds):
            rest = _union(tests[:i] + tests[i + 1:])
            assert rest.vulnerable == corpus.vulnerable - test.vulnerable
            assert rest.benign == corpus.benign - test.benign
            _assert_encodes(train, rest)

    def test_fold_sizes_differ_by_at_most_one(self):
        folds = list(make_kfold(_numbered_corpus(13, 41), k=4, seed=3).folds)
        v_sizes = {len(t.vulnerable) for _, t in folds}
        b_sizes = {len(t.benign) for _, t in folds}
        assert max(v_sizes) - min(v_sizes) <= 1
        assert max(b_sizes) - min(b_sizes) <= 1

    def test_asterisk_sized_fold_means(self):
        folds = list(make_kfold(_numbered_corpus(49, 10102), k=5, seed=0).folds)
        v_counts = [len(t.vulnerable) for _, t in folds]
        b_counts = [len(t.benign) for _, t in folds]
        assert sum(v_counts) / 5 == pytest.approx(9.8)
        assert sum(b_counts) / 5 == pytest.approx(2020.4)

    def test_too_few_names_is_infeasible(self):
        with pytest.raises(InfeasibleError):
            make_kfold(_numbered_corpus(3, 90), k=5, seed=0)
        with pytest.raises(InfeasibleError):
            make_kfold(_numbered_corpus(10, 10), k=1, seed=0)


def test_kfold_splits_each_name_once(monkeypatch):
    """Building every fold and tuning and testing on it splits each name once."""
    calls = Counter()
    real_split = favd.corpus.split

    def counting_split(name):
        calls[name] += 1
        return real_split(name)

    monkeypatch.setattr(favd.corpus, "split", counting_split)
    words = ("read", "file", "net", "buf", "log", "parse", "alloc")
    corpus = clean((f"{a}_{b}" for a in words[:4] for b in words[3:]),
                   (f"{a}{b.title()}" for a in words for b in words[::2]))
    grid = SearchGrid(cutoff_step=2, weights=(Weight(1, 1), Weight(2, 1), Weight(1, 3)))
    for train, test in make_kfold(corpus, 5, seed=0).folds:
        model = search_weights(train, MinScorePolicy.at_least(0), grid).model
        classify_corpus(test, model)
    assert calls == Counter(corpus.vulnerable | corpus.benign)


def _rows(encoded: EncodedCorpus) -> list:
    """Each label's multiset of rows per t, by term text."""
    terms = list(encoded.vocabulary)
    return [{t: Counter(tuple(map(terms.__getitem__, ids[j:j + t])) for j in range(0, len(ids), t))
             for t, ids in group.items()} for group in (encoded.vulnerable, encoded.benign)]


fold_name = st.lists(st.sampled_from(["read", "file", "net", "buf", "x", "2", "_"]),
                     max_size=4).map("_".join).map(lambda name: name or "__")
# "x_x" keeps one term of two; "__" and "_" have no terms, so they have no row but count.


@settings(max_examples=60, deadline=None)
@given(vuln=st.sets(fold_name, min_size=5, max_size=12), benign=st.sets(fold_name, min_size=5,
       max_size=20), k=st.integers(2, 5), seed=st.integers(0, 3))
def test_fold_encodings_equal_a_fresh_encode_up_to_term_ids(vuln, benign, k, seed):
    """Each test side keeps its names with their encoding; each train side encodes the rest."""
    corpus = clean(vuln, benign)
    assume(min(len(corpus.vulnerable), len(corpus.benign)) >= k)
    folds = list(make_kfold(corpus, k, seed).folds)
    tests = [test for _, test in folds]
    for i, (train, test) in enumerate(folds):
        _assert_encodes(test.encoded, LabeledCorpus(test.vulnerable, test.benign))
        _assert_encodes(train, _union(tests[:i] + tests[i + 1:]))


def _assert_encodes(encoded: EncodedCorpus, corpus: LabeledCorpus) -> None:
    """`encoded` equals a fresh encode of `corpus`: sizes, term counts, rows up to term ids."""
    fresh = LabeledCorpus(*corpus).encoded  # a new record, so no kept encoding
    assert (encoded.n_vulnerable, encoded.n_benign) == (len(corpus.vulnerable), len(corpus.benign))
    assert (fresh.n_vulnerable, fresh.n_benign) == (len(corpus.vulnerable), len(corpus.benign))
    assert _rows(encoded) == _rows(fresh)
    assert encoded.term_counts == fresh.term_counts
    assert set(fresh.vocabulary) <= set(encoded.vocabulary)


# Few short names, so that projects share some under mixed labels; "__" has no terms.
loo_name = st.lists(st.sampled_from(["read", "file", "x", "2"]), max_size=2).map("_".join).map(
    lambda name: name or "__")
loo_project = st.tuples(st.sets(loo_name, max_size=4), st.sets(loo_name, max_size=4)).filter(
    any).map(lambda lists: clean(*lists))


@settings(max_examples=80, deadline=None)
@given(projects=st.lists(loo_project, min_size=2, max_size=4))
@example(projects=[clean(("n", "a1"), ("a2",)), clean(("b1",), ("n", "b2")), clean(("c1",), ("c2",))])
def test_loo_fold_encodings_equal_a_fresh_encode_up_to_term_ids(projects):
    """Trains on the cleaned union of the rest, joined from the plan's groups, shared names or not."""
    for i, (train, test) in enumerate(make_leave_one_out(projects).folds):
        rest = projects[:i] + projects[i + 1:]
        assert test == projects[i] and test.vulnerable is projects[i].vulnerable
        names = [name for p in rest for name in chain(p.vulnerable, p.benign)]
        event(f"train projects share a name: {len(set(names)) < len(names)}")
        assert train.vocabulary is test.encoded.vocabulary  # the plan's, on every fold
        _assert_encodes(train, _union(rest))
        _assert_encodes(test.encoded, test)


def _term_count(encoded: EncodedCorpus, term: str) -> tuple[int, int]:
    terms, v, b = encoded.term_counts
    return v[terms.index(term)], b[terms.index(term)]


class TestLeaveOneOut:
    def _corpora(self):
        a = clean(("n", "a1"), ("a2",))
        b = clean(("b1",), ("n", "b2"))
        c = clean(("c1",), ("c2",))
        return a, b, c

    def test_one_fold_per_corpus(self):
        a, b, c = self._corpora()
        folds = list(make_leave_one_out([a, b, c]).folds)
        assert len(folds) == 3
        assert [test for _, test in folds] == [a, b, c]

    def test_train_is_cleaned_union_of_the_rest(self):
        a, b, c = self._corpora()
        folds = list(make_leave_one_out([a, b, c]).folds)
        for (train, _), rest in zip(folds, ([b, c], [a, c], [a, b])):
            _assert_encodes(train, _union(rest))
        # n is vulnerable in A and benign in B; the union rule keeps it
        # vulnerable when both sides are in training. The name n is the term
        # n, so the term's counts are the name's labels.
        train_for_c = folds[2][0]
        assert (train_for_c.n_vulnerable, train_for_c.n_benign) == (3, 2)
        assert _term_count(train_for_c, "n") == (1, 0)
        # With A held out, n is only known benign (from B).
        train_for_a = folds[0][0]
        assert (train_for_a.n_vulnerable, train_for_a.n_benign) == (2, 3)
        assert _term_count(train_for_a, "n") == (0, 1)

    def test_every_fold_joins_the_plans_groups(self, monkeypatch):
        # n is in A and B, so C's train side holds a name of two projects; it is joined all
        # the same, from the plan's groups, with no `clean` and no split once the plan is made.
        import favd.corpus

        plan = make_leave_one_out(self._corpora())
        calls = []
        for name in ("clean", "split", "_encode"):
            monkeypatch.setattr(favd.corpus, name, lambda *args, name=name: calls.append(name))
        folds = list(plan.folds)
        assert calls == []
        assert len({id(side.vocabulary) for train, test in folds for side in (train, test.encoded)}) == 1

    def test_needs_two_corpora(self):
        a, _, _ = self._corpora()
        with pytest.raises(InfeasibleError):
            make_leave_one_out([a])

