import hashlib
from fractions import Fraction

import pytest

from favd.corpus import make_kfold
from favd.errors import DataError
from favd.metrics import f_beta
from favd.predictor import classify_corpus
from favd.ranking import MinScorePolicy
from favd.splitter import split
from favd.synth import SynthSpec, generate, random_terms, spec_from_dict, write_corpus
from favd.tuner import SearchGrid, search_weights

PLANTED = frozenset({"alpha", "omega"})


def base_spec(**overrides) -> SynthSpec:
    params = dict(
        seed=3,
        n_vulnerable=30,
        n_benign=30,
        planted_dangerous=PLANTED,
        vocab_size=18,
        terms_per_name=(3, 3),
        signal_strength=1.0,
        vocab_overlap=0.0,
    )
    params.update(overrides)
    return SynthSpec(**params)


class TestSpecValidation:
    def test_planted_terms_must_be_splitter_atomic(self):
        with pytest.raises(ValueError):
            base_spec(planted_dangerous=frozenset({"a_b"}))
        with pytest.raises(ValueError):
            base_spec(planted_dangerous=frozenset({"Bad"}))
        with pytest.raises(ValueError):
            base_spec(planted_dangerous=frozenset())

    def test_ranges_validated(self):
        with pytest.raises(ValueError):
            base_spec(signal_strength=1.5)
        with pytest.raises(ValueError):
            base_spec(terms_per_name=(3, 2))
        with pytest.raises(ValueError):
            base_spec(n_vulnerable=0)


class TestGenerate:
    def test_fixed_seed_reproduces_corpus(self):
        a, truth_a = generate(base_spec())
        b, truth_b = generate(base_spec())
        assert a == b and truth_a == truth_b

    def test_different_seeds_differ(self):
        a, _ = generate(base_spec(seed=1))
        b, _ = generate(base_spec(seed=2))
        assert a != b

    def test_counts_and_invariants(self):
        corpus, truth = generate(base_spec())
        assert truth == PLANTED
        assert len(corpus.vulnerable) == 30
        assert len(corpus.benign) == 30
        assert not corpus.vulnerable & corpus.benign

    def test_signal_one_plants_a_term_in_every_vulnerable_name(self):
        corpus, truth = generate(base_spec())
        for name in corpus.vulnerable:
            assert set(split(name)) & truth
        for name in corpus.benign:
            assert not set(split(name)) & truth

    def test_terms_recoverable_by_splitting(self):
        corpus, _ = generate(base_spec())
        for name in corpus.vulnerable | corpus.benign:
            assert len(split(name)) == 3

    def test_vocabulary_too_small_is_an_error(self):
        with pytest.raises(DataError, match="vocabulary too small"):
            generate(base_spec(vocab_size=2, n_benign=50, terms_per_name=(2, 2)))

    def test_planted_names_longer_than_the_vulnerable_pool_are_an_error(self):
        # One planted and two filler words: a planted name of four words needs
        # three others, while one of three words fits. Vulnerable names are
        # drawn first, all of them planted.
        spec = base_spec(planted_dangerous=frozenset({"alpha"}), vocab_size=5, n_vulnerable=6,
                         n_benign=1, terms_per_name=(2, 4))
        with pytest.raises(DataError, match="vocabulary too small for requested name lengths"):
            generate(spec)
        corpus, _ = generate(spec._replace(terms_per_name=(2, 3)))
        assert max(len(split(name)) for name in corpus.vulnerable) == 3

    # SHA-256 of write_corpus's vulnerable.txt and benign.txt for a
    # vocabulary of 1,200 words, so that every planted name samples from a
    # pool of hundreds; a change to the draws changes these bytes.
    @pytest.mark.parametrize(("camel_case", "digests"), [
        (False, ("18fe4a0efc8de58a7b09bc7c3ccd5fe3639d3a1a1dd874627b11675a8a4cd4c7",
                 "4ada7ad955ea305def5e8f0d06bd9dfa1dfbf57cc10aaa411a9a387a8882cc7c")),
        (True, ("ad1d92fbf1109dcff9bbcd72546869c88ede32a1a352f6f748d4816db55c4703",
                "5a7befd926e15619d0e3f1e58693856dba018d74d6cd0578ef89874dd286ba08")),
    ])
    def test_mid_size_corpus_matches_pinned_bytes(self, tmp_path, camel_case, digests):
        spec = SynthSpec(seed=11, n_vulnerable=300, n_benign=3000,
                         planted_dangerous=frozenset({"alpha", "bravo", "delta", "omega"}),
                         vocab_size=1200, terms_per_name=(1, 4), signal_strength=0.8,
                         vocab_overlap=0.4, camel_case=camel_case)
        paths = write_corpus(generate(spec)[0], tmp_path)
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths) == digests

    def test_camel_case_option(self):
        corpus, _ = generate(base_spec(camel_case=True, terms_per_name=(2, 3)))
        sample = sorted(corpus.vulnerable)[0]
        assert "_" not in sample
        assert len(split(sample)) >= 2


class TestEndToEnd:
    def test_perfect_signal_disjoint_vocab_gives_perfect_cv_f2(self):
        corpus, _ = generate(base_spec())
        plan = make_kfold(corpus, 2, seed=103)
        for train, test in plan.folds:
            result = search_weights(
                train, MinScorePolicy.at_least(0), SearchGrid(cutoff_step=1)
            )
            counts = classify_corpus(test, result.model)
            assert f_beta(counts, 2) == 1

    def test_planted_corpus_beats_all_vulnerable_baseline_under_5fold(self):
        from favd.metrics import all_vulnerable_f2

        spec = base_spec(n_vulnerable=25, n_benign=50, signal_strength=0.9)
        corpus, _ = generate(spec)
        grid = SearchGrid(cutoff_step=2)
        f2_sum, base_sum = Fraction(0), Fraction(0)
        for train, test in make_kfold(corpus, 5, seed=11).folds:
            result = search_weights(train, MinScorePolicy.at_least(0), grid)
            counts = classify_corpus(test, result.model)
            f2_sum += f_beta(counts, 2)
            base_sum += all_vulnerable_f2(len(test.vulnerable), len(test.benign))
        assert f2_sum >= base_sum

    def test_more_vocabulary_overlap_means_lower_scores(self):
        # the diversity knob: mean 2-fold F2 over seeds drops as the two
        # classes share more of their filler vocabulary
        grid = SearchGrid(cutoff_step=5)
        policy = MinScorePolicy.at_least(0)

        def mean_f2(overlap: float) -> float:
            total, folds = Fraction(0), 0
            for seed in range(6):
                spec = SynthSpec(
                    seed=seed, n_vulnerable=25, n_benign=50,
                    planted_dangerous=PLANTED, vocab_size=24,
                    terms_per_name=(2, 3), signal_strength=0.6,
                    vocab_overlap=overlap,
                )
                corpus, _ = generate(spec)
                for train, test in make_kfold(corpus, 2, seed=seed).folds:
                    result = search_weights(train, policy, grid)
                    counts = classify_corpus(test, result.model)
                    total += f_beta(counts, 2)
                    folds += 1
            return float(total / folds)

        disjoint, half, identical = mean_f2(0.0), mean_f2(0.5), mean_f2(1.0)
        assert disjoint > half > identical


class TestHelpers:
    def test_random_terms_unique_and_excluded(self):
        import random

        terms = random_terms(random.Random(0), 50, exclude=frozenset({"alpha"}))
        assert len(set(terms)) == 50
        assert "alpha" not in terms

    def test_write_corpus_files(self, tmp_path):
        corpus, _ = generate(base_spec())
        vpath, bpath = write_corpus(corpus, tmp_path / "out")
        assert vpath.read_text().splitlines() == sorted(corpus.vulnerable)
        assert bpath.read_text().splitlines() == sorted(corpus.benign)

    def test_spec_from_dict_with_planted_count(self):
        spec = spec_from_dict(
            {"seed": 5, "n_vulnerable": 10, "n_benign": 10, "planted_count": 3,
             "vocab_size": 12}
        )
        assert len(spec.planted_dangerous) == 3
        again = spec_from_dict(
            {"seed": 5, "n_vulnerable": 10, "n_benign": 10, "planted_count": 3,
             "vocab_size": 12}
        )
        assert spec.planted_dangerous == again.planted_dangerous

    def test_spec_from_dict_requires_planted_information(self):
        with pytest.raises(DataError):
            spec_from_dict({"seed": 1, "n_vulnerable": 5, "n_benign": 5, "vocab_size": 8})
