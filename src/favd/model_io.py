"""Tuned-model persistence.

The JSON document keeps the full dangerous-word list, so a model file is its
own explanation: the ranked words are the reason behind every prediction.
The threshold and the policy bound are exact: each is written as a JSON
number when that float reads back as the same Fraction, else as the text
"p/q" (a threshold of 2/3, say), which loading reads back exactly.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from . import __version__
from .checks import checked, count, integer, number, string
from .errors import DataError, reading, writing
from .predictor import TunedModel
from .ranking import DangerousWordList, MinScorePolicy, Weight, score_out
from .rational import exact_fraction

SCHEMA_VERSION = 1


def _rate_out(value: int | Fraction) -> float | str:
    """The float of `value` when it reads back equal, else its "p/q" text."""
    as_float = float(value)
    return as_float if exact_fraction(as_float) == value else str(value)


def _rate_in(value) -> int | Fraction:
    """A JSON number, as `number` reads it, or the "p/q" text `_rate_out` writes."""
    return number(value, text=isinstance(value, str) and "/" in value)


def _policy_out(policy: MinScorePolicy) -> dict:
    if policy.threshold is None:
        return {"kind": "all"}
    return {"kind": "at_least", "threshold": _rate_out(policy.threshold)}


def _policy_in(doc) -> MinScorePolicy:
    if not isinstance(doc, dict):
        raise TypeError(f"policy must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "all":
        return MinScorePolicy.all_terms()
    if kind == "at_least":
        return MinScorePolicy.at_least(checked("policy threshold", _rate_in, doc["threshold"]))
    raise DataError(f"unknown policy kind {kind!r}")


def _weight_in(doc) -> Weight | None:
    if doc is None:
        return None
    return Weight(checked("weight plus", count, doc["plus"]),
                  checked("weight minus", count, doc["minus"]))


def model_document(
    model: TunedModel,
    train_f2: Fraction,
    inputs: dict | None = None,
    config: dict | None = None,
    warnings: list[str] | None = None,
) -> dict:
    dangerous = model.dangerous
    weight = dangerous.weight
    return {
        "schema_version": SCHEMA_VERSION,
        "policy": _policy_out(dangerous.policy),
        "weight": {"plus": weight.plus, "minus": weight.minus} if weight else None,
        "source": dangerous.source,
        "cutoff": model.cutoff,
        "threshold": _rate_out(model.threshold),
        "dangerous": [{"term": t, "score": score_out(s)} for t, s in dangerous.words],
        "train_f2": float(train_f2),
        "warnings": warnings or [],
        "provenance": {
            "tool_version": __version__,
            "inputs": inputs or {},
            "seed": None,
            "config": config or {},
        },
    }


def save_model(document: dict, out) -> None:
    """Write a model or any report as sorted, indented JSON, as encoded, to a path or open file."""
    with nullcontext(out) if hasattr(out, "write") else writing(out) as fh:
        fh.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(document))
        fh.write("\n")


def load_json_object(path: str | Path, what: str) -> dict:
    """Read a file that must hold one JSON object: a model, config or spec file."""
    with reading(path, what) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DataError(f"malformed {what} {path}: expected a JSON object")
    return doc


def load_model(path: str | Path) -> TunedModel:
    doc = load_json_object(path, "model file")
    try:
        version = checked("schema_version", integer, doc.get("schema_version"))
        if version != SCHEMA_VERSION:
            raise DataError(f"unsupported model schema {version}")
        words = {}
        for row in doc["dangerous"]:
            term = checked("term", string, row["term"])
            if term in words:  # it would rank twice: predict reads its first rank, roc its last
                raise DataError(f"term {term!r} is listed twice")
            words[term] = checked("score", number, row["score"])
        dangerous = DangerousWordList(tuple(words.items()), _policy_in(doc["policy"]),
                                      _weight_in(doc.get("weight")), doc.get("source"))
        return TunedModel(dangerous, checked("cutoff", integer, doc["cutoff"]),
                          checked("threshold", _rate_in, doc["threshold"]))
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"malformed model file {path}: {exc}") from exc
