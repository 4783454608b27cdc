import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from favd import DEFAULT_THRESHOLD_STEP
from favd.corpus import clean
from favd.errors import DataError
from favd.metrics import threshold_values
from favd.model_io import load_model, model_document, save_model
from favd.predictor import TunedModel, classify
from favd.ranking import MinScorePolicy, Weight, load_external_scores, rank, score_frequency
from favd.tuner import SearchGrid, find_best


def _trained(corpus):
    words = rank(score_frequency(corpus, Weight(3, 2)), MinScorePolicy.at_least(0))
    return find_best(words, corpus, SearchGrid(cutoff_step=1))


def test_roundtrip_preserves_model(tmp_path, separable_corpus):
    result = _trained(separable_corpus)
    path = tmp_path / "model.json"
    save_model(model_document(result.model, result.train_f2), path)
    loaded = load_model(path)
    assert loaded.cutoff == result.model.cutoff
    assert loaded.threshold == result.model.threshold
    assert loaded.weight == result.model.weight
    assert loaded.dangerous.policy == result.model.dangerous.policy
    assert loaded.dangerous.words == result.model.dangerous.words


def test_threshold_roundtrips_as_exact_decimal(tmp_path, separable_corpus):
    result = _trained(separable_corpus)
    path = tmp_path / "model.json"
    save_model(model_document(result.model, result.train_f2), path)
    loaded = load_model(path)
    assert isinstance(loaded.threshold, Fraction)
    assert loaded.threshold == result.model.threshold


@pytest.mark.parametrize("step", ["1/3", "1/7", DEFAULT_THRESHOLD_STEP])
def test_every_grid_threshold_roundtrips_exactly(tmp_path, separable_corpus, step):
    """A threshold is saved as its float when that reads back equal, else as "p/q" text."""
    model = _trained(separable_corpus).model
    path = tmp_path / "model.json"
    for threshold in threshold_values(step):
        doc = model_document(TunedModel(model.dangerous, model.cutoff, threshold), Fraction(1))
        if 20 % threshold.denominator == 0:  # a multiple of 0.05, which a float holds
            assert doc["threshold"] == float(threshold)
        else:
            assert doc["threshold"] == f"{threshold.numerator}/{threshold.denominator}"
        save_model(doc, path)
        assert load_model(path).threshold == threshold


def test_saved_model_predicts_as_the_tuned_one(tmp_path):
    """At threshold 2/3, 2 of 3 matched terms is not above it; the float 0.666... would be."""
    corpus = clean(["read_a_b", "read_c_d", "read_e_f"], ["draw_x", "draw_y", "log_z", "ui_w"])
    words = rank(score_frequency(corpus, Weight(1, 1)), MinScorePolicy.at_least(0))
    model = TunedModel(words, len(words.words), Fraction(2, 3))
    path = tmp_path / "model.json"
    save_model(model_document(model, Fraction(1)), path)
    loaded = load_model(path)
    assert loaded.threshold == Fraction(2, 3)
    assert classify("read_a_zz", loaded) == classify("read_a_zz", model)
    assert classify("read_a_zz", model).label == "benign"


def test_policy_bound_roundtrips_exactly(tmp_path, separable_corpus):
    policy = MinScorePolicy.at_least(Fraction(1, 3))
    words = rank(score_frequency(separable_corpus, Weight(3, 2), policy), policy)
    path = tmp_path / "model.json"
    save_model(model_document(TunedModel(words, 1, Fraction(0)), Fraction(1)), path)
    assert load_model(path).dangerous.policy == policy


def test_external_model_roundtrip(tmp_path, separable_corpus):
    scores = tmp_path / "scores.csv"
    scores.write_text("danger,0.93\nsafe,0.04\ncalm,0.10\n")
    words = rank(load_external_scores(scores), MinScorePolicy.at_least(Fraction("0.5")))
    result = find_best(words, separable_corpus, SearchGrid(cutoff_step=1))
    path = tmp_path / "model.json"
    save_model(model_document(result.model, result.train_f2), path)
    loaded = load_model(path)
    assert loaded.weight is None
    assert loaded.dangerous.words == words.words
    assert loaded.dangerous.words[0][1] == Fraction("0.93")


def test_document_carries_provenance(tmp_path, separable_corpus):
    result = _trained(separable_corpus)
    doc = model_document(
        result.model, result.train_f2,
        inputs={"vulnerable": {"path": "v.txt", "sha256": "00"}},
        config={"policy": "at_least(0.0)"},
    )
    assert doc["provenance"]["inputs"]["vulnerable"]["path"] == "v.txt"
    assert doc["schema_version"] == 1
    assert doc["train_f2"] == float(result.train_f2)


def test_repeated_term_rejected(tmp_path, separable_corpus):
    """A term listed twice would rank twice; predict and roc would read different ranks."""
    result = _trained(separable_corpus)
    doc = model_document(result.model, result.train_f2)
    first = doc["dangerous"][0]["term"]
    doc["dangerous"].append({"term": first, "score": 0})
    path = tmp_path / "model.json"
    save_model(doc, path)
    with pytest.raises(DataError, match=f"term '{first}' is listed twice"):
        load_model(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(DataError):
        load_model(tmp_path / "absent.json")


def test_malformed_json_rejected(tmp_path):
    p = tmp_path / "model.json"
    p.write_text("{not json")
    with pytest.raises(DataError, match="malformed"):
        load_model(p)


def test_wrong_schema_version_rejected(tmp_path):
    p = tmp_path / "model.json"
    p.write_text('{"schema_version": 99}')
    with pytest.raises(DataError, match="schema"):
        load_model(p)


# JSON documents as favd writes them: non-ASCII terms, floats, "p/q" texts, empty lists and dicts.
_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
            | st.text() | st.sampled_from(["p/q", "2/3", "données", "ǅx", "\u2028"]))
_DOCUMENTS = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                          | st.dictionaries(st.text(max_size=8), inner, max_size=4), max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(document=st.dictionaries(st.text(max_size=8), _DOCUMENTS, max_size=6)
       | st.just({"dangerous": [], "inputs": {}, "score": 0.1, "threshold": "2/3",
                  "term": "lecture_écriture"}))
def test_saved_bytes_are_the_json_dumps_text(tmp_path_factory, document):
    """save_model writes as it encodes; the bytes are still json.dumps's and a line end."""
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    save_model(document, path)
    assert path.read_bytes() == (json.dumps(document, sort_keys=True, indent=2) + "\n").encode()
