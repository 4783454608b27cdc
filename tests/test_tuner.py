import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bruteforce import oracle_sweep
from favd import tuner
from favd.corpus import LabeledCorpus, clean
from favd.errors import DataError
from favd.metrics import MAX_THRESHOLDS, all_vulnerable_f2, f_beta
from favd.predictor import classify_corpus
from favd.ranking import MinScorePolicy, Weight, rank, score_frequency
from favd.synth import SynthSpec, generate
from favd.tuner import (GridCounts, SearchGrid, find_best, search_weights, threshold_values,
                        trace_text)
from gridcells import grid_cells

POLICY_ZERO = MinScorePolicy.at_least(0)


def small_grid(weights=(Weight(1, 1),), cutoff_step=1):
    return SearchGrid(cutoff_step=cutoff_step, weights=tuple(weights))


class TestGrids:
    def test_threshold_values_default_step(self):
        values = threshold_values(Fraction(1, 20))
        assert len(values) == 21
        assert values[0] == 0 and values[-1] == 1

    def test_threshold_values_non_divisor_step_still_reaches_one(self):
        values = threshold_values(Fraction(3, 10))
        assert values == (0, Fraction(3, 10), Fraction(3, 5), Fraction(9, 10), 1)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            threshold_values(0)

    def test_threshold_grid_is_bounded_before_it_is_built(self):
        assert len(threshold_values(Fraction(1, MAX_THRESHOLDS - 1))) == MAX_THRESHOLDS
        for step in (Fraction(1, MAX_THRESHOLDS), Fraction(1, 10**400)):
            with pytest.raises(DataError, match="too fine"):
                threshold_values(step)

    def test_cutoff_values_step_and_full_length(self):
        grid = SearchGrid(cutoff_step=100)
        assert grid.cutoff_values(250) == (1, 101, 201, 250)
        assert grid.cutoff_values(201) == (1, 101, 201)
        assert grid.cutoff_values(1) == (1,)
        assert grid.cutoff_values(0) == ()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SearchGrid(cutoff_step=0)
        with pytest.raises(ValueError):
            SearchGrid(thresholds=())
        with pytest.raises(ValueError):
            SearchGrid(thresholds=(Fraction(3, 2),))

    def test_grid_holds_its_thresholds_unique_and_descending(self):
        half = Fraction(1, 2)
        assert SearchGrid(thresholds=(0, half, half, 1)).thresholds == (1, half, 0)
        with pytest.raises(ValueError):
            SearchGrid(thresholds=(0, half, Fraction(3, 2)))


class TestFindBest:
    def test_separable_single_word(self, separable_corpus):
        words = rank(score_frequency(separable_corpus, Weight(1, 1)), POLICY_ZERO)
        assert words.words[0][0] == "danger"
        result = find_best(words, separable_corpus, small_grid())
        assert result.train_f2 == 1
        assert result.model.cutoff == 1
        # names have two terms each; largest grid threshold under 1/2
        assert result.model.threshold == Fraction(9, 20)

    def test_indiscriminate_corpus_degenerates_to_all_vulnerable(self):
        # same term set on both sides: every cell predicts both names alike
        corpus = clean(("a_b",), ("b_a",))
        words = rank(score_frequency(corpus, Weight(1, 1)), POLICY_ZERO)
        trace = []
        result = find_best(words, corpus, small_grid(), trace=trace)
        assert result.train_f2 == all_vulnerable_f2(1, 1)
        zero_cells = [c for c in grid_cells(trace[0][1]) if c.threshold == 0]
        assert all(c.f2 == result.train_f2 for c in zero_cells)

    def test_empty_list_gives_degenerate_model(self, separable_corpus):
        words = rank(
            score_frequency(clean((), ("safe_x", "calm_y")), Weight(1, 1)),
            POLICY_ZERO,
        )
        assert len(words.words) == 0
        result = find_best(words, separable_corpus, small_grid())
        assert result.train_f2 == 0
        assert result.model.cutoff == 0
        counts = classify_corpus(separable_corpus, result.model)
        assert counts.tp == 0 and counts.fp == 0

    def test_trace_contains_every_cell_and_argmax_dominates(self, separable_corpus):
        words = rank(score_frequency(separable_corpus, Weight(1, 1)), POLICY_ZERO)
        grid = small_grid()
        trace = []
        result = find_best(words, separable_corpus, grid, trace=trace)
        [(weight, counts)] = trace
        cells = list(grid_cells(counts))
        assert weight == Weight(1, 1)
        expected_cells = len(grid.cutoff_values(len(words.words))) * len(set(grid.thresholds))
        assert len(cells) == expected_cells
        assert all(cell.f2 <= result.train_f2 for cell in cells)

    def test_reported_f2_matches_fresh_classification(self, separable_corpus):
        words = rank(score_frequency(separable_corpus, Weight(2, 3)), POLICY_ZERO)
        result = find_best(words, separable_corpus, small_grid())
        counts = classify_corpus(separable_corpus, result.model)
        assert f_beta(counts, 2) == result.train_f2

    def test_tie_break_prefers_smaller_cutoff_then_larger_threshold(self):
        corpus = clean(("danger_a", "danger_b"), ("safe_a", "safe_b"))
        words = rank(score_frequency(corpus, Weight(1, 1)), POLICY_ZERO)
        trace = []
        result = find_best(words, corpus, small_grid(), trace=trace)
        peers = [c for c in grid_cells(trace[0][1]) if c.f2 == result.train_f2]
        assert result.model.cutoff == min(c.cutoff for c in peers)
        same_cutoff = [c for c in peers if c.cutoff == result.model.cutoff]
        assert result.model.threshold == max(c.threshold for c in same_cutoff)

    def test_determinism(self, separable_corpus):
        words = rank(score_frequency(separable_corpus, Weight(1, 1)), POLICY_ZERO)
        trace_a, trace_b = [], []
        a = find_best(words, separable_corpus, small_grid(), trace=trace_a)
        b = find_best(words, separable_corpus, small_grid(), trace=trace_b)
        assert (a, trace_a) == (b, trace_b)


tuner_name = st.one_of(
    st.sampled_from(["__", "___"]),
    st.lists(st.sampled_from(["alpha", "bravo", "charlie", "delta", "echo"]),
             min_size=1, max_size=3).map("_".join),
)
tuner_corpus = st.builds(
    clean,
    st.sets(tuner_name, min_size=1, max_size=6),
    st.sets(tuner_name, max_size=6),
)


# Names with no terms are never flagged, so in both examples every cell has
# tp = 0 and scores 0; the second one has no vulnerable names at all.
@settings(max_examples=40, deadline=None)
@given(corpus=tuner_corpus,
       beta=st.sampled_from([Fraction(1, 3), 1, Fraction(7, 5), 1000]),
       policy=st.sampled_from([POLICY_ZERO, MinScorePolicy.all_terms()]))
@example(corpus=clean(("__", "___"), ("alpha_bravo", "charlie")), beta=1000,
         policy=MinScorePolicy.all_terms())
@example(corpus=clean((), ("alpha_bravo", "charlie")), beta=Fraction(1, 3),
         policy=MinScorePolicy.all_terms())
def test_integer_scores_match_f_beta_for_any_beta(corpus, beta, policy):
    words = rank(score_frequency(corpus, Weight(1, 1)), policy)
    grid = SearchGrid(cutoff_step=2, thresholds=threshold_values(Fraction(1, 4)))
    trace = []
    result = find_best(words, corpus, grid, beta=beta, trace=trace)
    [(_, counts)] = trace
    cells = list(grid_cells(counts, beta))
    assert len(cells) == len(grid.cutoff_values(len(words.words))) * len(grid.thresholds)
    b2 = Fraction(beta) ** 2
    for cell in cells:
        assert cell.f2 == f_beta(cell.counts, beta)
        tp, fp, fn, _ = cell.counts
        assert cell.f2 == ((1 + b2) * tp / ((1 + b2) * tp + b2 * fn + fp) if tp else 0)
    if not cells:
        assert (result.model.cutoff, result.train_f2) == (0, 0)
        return
    # Best score, then smaller cutoff, then larger threshold.
    best = min(cells, key=lambda c: (-f_beta(c.counts, beta), c.cutoff, -c.threshold))
    assert (result.model.cutoff, result.model.threshold) == (best.cutoff, best.threshold)
    assert result.train_f2 == f_beta(best.counts, beta)


CANONICAL = threshold_values(Fraction(1, 4))


@settings(max_examples=40, deadline=None)
@given(corpus=tuner_corpus, thresholds=st.permutations(CANONICAL + CANONICAL[1::2]))
def test_find_best_reads_any_threshold_order_as_the_canonical_one(corpus, thresholds):
    """Repeated and shuffled thresholds give the cells and winner of the sorted unique ones."""
    words = rank(score_frequency(corpus, Weight(1, 1)), POLICY_ZERO)
    runs = []
    for given_thresholds in (tuple(thresholds), CANONICAL[::-1]):
        trace = []
        result = find_best(words, corpus, SearchGrid(2, given_thresholds), trace=trace)
        runs.append((result, trace))
    assert runs[0] == runs[1]
    [(_, counts)] = runs[0][1]
    cells = list(grid_cells(counts))  # for each cutoff, every threshold once, descending
    assert [cell.threshold for cell in cells] == [*CANONICAL[::-1]] * (len(cells) // len(CANONICAL))


class TestSearchWeights:
    def test_single_weight_equals_find_best(self, separable_corpus):
        grid = small_grid(weights=(Weight(3, 2),))
        direct = find_best(
            rank(score_frequency(separable_corpus, Weight(3, 2)), POLICY_ZERO),
            separable_corpus,
            grid,
        )
        swept = search_weights(separable_corpus, POLICY_ZERO, grid)
        assert swept.model.weight == Weight(3, 2)
        assert swept.train_f2 == direct.train_f2
        assert swept.model.cutoff == direct.model.cutoff
        assert swept.model.threshold == direct.model.threshold

    def test_ties_resolve_to_earlier_grid_entry(self, separable_corpus):
        # 2-2 and 1-1 rank identically (scale invariance), so the first wins.
        grid = small_grid(weights=(Weight(2, 2), Weight(1, 1)))
        swept = search_weights(separable_corpus, POLICY_ZERO, grid)
        assert swept.model.weight == Weight(2, 2)

    def test_inclusion_branch_picked_by_train_score(self):
        # 'risky' sits in 1 vulnerable and 3 benign names: weight 1-1 drops it
        # at policy zero, weight 4-1 keeps it; the sweep takes the better F2.
        corpus = clean(("risky_alpha", "plain_beta"),
                       ("risky_one", "risky_two", "risky_three", "quiet_four"))
        w_excl = rank(score_frequency(corpus, Weight(1, 1)), POLICY_ZERO)
        assert "risky" not in {t for t, _ in w_excl.words}
        w_incl = rank(score_frequency(corpus, Weight(4, 1)), POLICY_ZERO)
        assert "risky" in {t for t, _ in w_incl.words}
        grid = small_grid(weights=(Weight(1, 1), Weight(4, 1)))
        swept = search_weights(corpus, POLICY_ZERO, grid)
        best_direct = max(
            find_best(w_excl, corpus, grid).train_f2,
            find_best(w_incl, corpus, grid).train_f2,
        )
        assert swept.train_f2 == best_direct

    def test_planted_vocabulary_recovered_in_prefix(self):
        planted = frozenset(f"planted{c}" for c in "abcdefghij")
        for seed in (0, 1, 5):
            spec = SynthSpec(
                seed=seed, n_vulnerable=50, n_benign=50, planted_dangerous=planted,
                vocab_size=50, terms_per_name=(2, 2), signal_strength=1.0,
                vocab_overlap=0.0,
            )
            corpus, truth = generate(spec)
            result = search_weights(corpus, POLICY_ZERO, SearchGrid(cutoff_step=1))
            recovered = len(truth & result.model.top_terms) / len(truth)
            assert recovered >= 0.9

    def test_matches_bruteforce_oracle_on_small_corpora(self):
        weights = (Weight(1, 1), Weight(3, 2), Weight(1, 10), Weight(1000, 1))
        grid = SearchGrid(cutoff_step=3, weights=weights)
        for seed in range(5):
            spec = SynthSpec(
                seed=4000 + seed, n_vulnerable=8, n_benign=12,
                planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=10,
                terms_per_name=(1, 3), signal_strength=0.6, vocab_overlap=0.5,
            )
            corpus, _ = generate(spec)
            best, cells = oracle_sweep(corpus, weights, 3, grid.thresholds)
            trace = []
            result = search_weights(corpus, POLICY_ZERO, grid, trace=trace)
            lib_cells = {
                (w.tag(), cell.cutoff, cell.threshold): cell.f2
                for w, counts in trace
                for cell in grid_cells(counts)
            }
            assert lib_cells == cells
            f2, w_index, cutoff, threshold = best
            assert result.train_f2 == f2
            assert result.model.weight == weights[w_index]
            assert result.model.cutoff == cutoff
            if cutoff:
                assert result.model.threshold == threshold


# Weight grids with repeated and scale-equal pairs, so that rankings repeat.
REPEATING_WEIGHTS = (Weight(1, 1), Weight(2, 2), Weight(1, 2), Weight(2, 4), Weight(3, 3))


def synth_corpus(seed, n_vulnerable=8, n_benign=12, signal_strength=0.6, vocab_overlap=0.5):
    return generate(SynthSpec(
        seed=seed, n_vulnerable=n_vulnerable, n_benign=n_benign,
        planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=10, terms_per_name=(1, 3),
        signal_strength=signal_strength, vocab_overlap=vocab_overlap,
    ))[0]


@settings(max_examples=40, deadline=None)
@given(corpus=st.builds(synth_corpus, st.integers(0, 10**6), st.integers(2, 8),
                        st.integers(2, 12), st.sampled_from([0.3, 0.6, 0.9]),
                        st.sampled_from([0.0, 0.5])),
       weights=st.lists(st.sampled_from(REPEATING_WEIGHTS + (Weight(3, 1), Weight(1, 5))),
                        min_size=1, max_size=6),
       keep_all=st.booleans(),
       cutoff_step=st.integers(1, 3))
@example(corpus=synth_corpus(4000), weights=list(REPEATING_WEIGHTS), keep_all=False,
         cutoff_step=1)
@example(corpus=synth_corpus(4000), weights=list(REPEATING_WEIGHTS), keep_all=True,
         cutoff_step=1)
def test_sweep_with_repeated_rankings_matches_oracle(corpus, weights, keep_all, cutoff_step):
    policy = MinScorePolicy.all_terms() if keep_all else POLICY_ZERO
    grid = SearchGrid(cutoff_step=cutoff_step, thresholds=threshold_values(Fraction(1, 4)),
                      weights=tuple(weights))
    best, cells = oracle_sweep(corpus, grid.weights, cutoff_step, grid.thresholds,
                               keep_all=keep_all)
    trace = []
    result = search_weights(corpus, policy, grid, trace=trace)
    # One entry per weight, in grid order, holding every cell of that weight.
    assert [weight for weight, _ in trace] == list(grid.weights)
    for weight, counts in trace:
        traced = list(grid_cells(counts))
        expected = {(cutoff, threshold): f2 for (tag, cutoff, threshold), f2 in cells.items()
                    if tag == weight.tag()}
        assert len(traced) == len(expected)
        assert {(cell.cutoff, cell.threshold): cell.f2 for cell in traced} == expected
    f2, w_index, cutoff, threshold = best
    assert result.train_f2 == f2
    assert result.model.weight == grid.weights[w_index]
    assert result.model.cutoff == cutoff
    if cutoff:
        assert result.model.threshold == threshold


@pytest.mark.parametrize("policy", [POLICY_ZERO, MinScorePolicy.all_terms()],
                         ids=["zero", "none"])
def test_find_best_runs_once_per_distinct_ranking(monkeypatch, policy):
    corpus = synth_corpus(7, n_vulnerable=20, n_benign=60, vocab_overlap=0.8)
    grid = SearchGrid(cutoff_step=2)  # the default 38-weight grid
    first_weights = {}  # ranked term order -> the first weight that ranks so
    for weight in grid.weights:
        words = rank(score_frequency(corpus, weight), policy).words
        first_weights.setdefault(tuple(term for term, _ in words), weight)
    firsts = list(first_weights.values())
    assert 1 < len(firsts) < len(grid.weights)
    tuned = []

    def counting_find_best(dangerous, *args, **kwargs):
        tuned.append(dangerous.weight)
        return find_best(dangerous, *args, **kwargs)

    monkeypatch.setattr(tuner, "find_best", counting_find_best)
    untraced = search_weights(corpus, policy, grid)
    assert tuned == firsts
    tuned.clear()
    trace = []
    assert search_weights(corpus, policy, grid, trace=trace) == untraced
    assert tuned == firsts
    assert [weight for weight, _ in trace] == list(grid.weights)


def _random_counts(seed: int, n_cutoffs: int = 300) -> GridCounts:
    """A ranking's counts at 21 thresholds and `n_cutoffs` cutoffs, for formatting only."""
    rng = random.Random(seed)
    thresholds = SearchGrid().thresholds
    tp, fp = ([[rng.randint(0, n) for _ in range(n_cutoffs)] for _ in thresholds]
              for n in (10, 60))
    return GridCounts(tuple(range(1, n_cutoffs + 1)), thresholds, tp, fp, 10, 60)


def _traced_peak(chunks, stop_at: str | None = None) -> int:
    """Bytes traced at the peak of drawing `chunks`; with `stop_at`, those still held when the
    first chunk that starts with it is drawn."""
    tracemalloc.start()
    try:
        for chunk in chunks:
            if stop_at is not None and chunk.startswith(stop_at):
                return tracemalloc.get_traced_memory()[0]
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trace_text_holds_only_the_rankings_still_to_be_written():
    trace = [(Weight(1, i), _random_counts(i)) for i in range(1, 9)]  # 8 distinct rankings
    one_ranking = sum(map(len, trace_text(trace[:1])))
    assert one_ranking > 150_000
    peak = _traced_peak(trace_text(trace))
    # Holding all 8 rankings' lines until the last weight peaked at 27 times one_ranking.
    assert peak < 2 * one_ranking, (peak, one_ranking)


def test_a_ranking_shared_by_a_later_weight_is_repeated_byte_for_byte_then_freed():
    a, b = _random_counts(1), _random_counts(2)
    trace = [(Weight(1, 1), a), (Weight(2, 1), b), (Weight(3, 1), a),
             (Weight(4, 1), _random_counts(3, n_cutoffs=1))]
    rows = {}
    for line in "".join(trace_text(trace, Fraction(3, 2))).splitlines():
        tag, rest = line.split(",", 1)
        rows.setdefault(tag, []).append(rest)
    assert list(rows) == ["1-1", "2-1", "3-1", "4-1"]
    assert rows["3-1"] == rows["1-1"] != rows["2-1"]
    assert rows["1-1"] == [f"{cell.cutoff},{float(cell.threshold)},"
                           f"{','.join(map(str, cell.counts))},{float(cell.f2):.6f}"
                           for cell in grid_cells(a, Fraction(3, 2))]
    # By the last weight, a is written for good and b was never held.
    one_ranking = sum(map(len, trace_text(trace[:1])))
    held = _traced_peak(trace_text(trace), stop_at="4-1,")
    assert held < one_ranking / 4, (held, one_ranking)


class TestUpperBound:
    def test_separable_corpus_reaches_one(self, separable_corpus):
        assert search_weights(separable_corpus, POLICY_ZERO, small_grid()).train_f2 == 1

    def test_all_benign_corpus_is_zero(self):
        corpus = LabeledCorpus(
            vulnerable=frozenset(), benign=frozenset({"safe_a", "calm_b"})
        )
        assert search_weights(corpus, POLICY_ZERO, small_grid()).train_f2 == 0
        assert search_weights(corpus, MinScorePolicy.all_terms(), small_grid()).train_f2 == 0
