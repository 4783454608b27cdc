from fractions import Fraction

import pytest

from favd.errors import DataError
from favd.model_io import load_model, model_document, save_model
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
