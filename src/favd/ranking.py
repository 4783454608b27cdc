"""Term dangerousness scoring and ranked dangerous-word lists.

Frequency scoring gives every unique term of a vulnerable name `plus` and
every unique term of a benign name `-minus`. A term therefore scores
plus*V_t - minus*B_t where V_t and B_t count the names (not occurrences)
containing it. Both counts come from the corpus encoding, with the terms
already in tie-break order (`LabeledCorpus.term_counts`), so trying another
weight neither splits the names again nor sorts by anything but score.
External per-term scores in [0, 1] can be loaded from CSV instead, their
terms in text order; they plug into the same rank step, so any offline
scorer can drive the rest of the pipeline.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .checks import number, string
from .corpus import LabeledCorpus
from .errors import DataError, csv_rows, write_csv
from .rational import exact_fraction, parse_fraction

Score = int | Fraction


class Weight(namedtuple("Weight", "plus minus")):
    """Per-occurrence increment (vulnerable names) and decrement (benign)."""

    __slots__ = ()

    def __new__(cls, plus: int, minus: int) -> "Weight":
        if plus < 1 or minus < 1:
            raise ValueError(f"weight components must be >= 1, got {plus}-{minus}")
        return super().__new__(cls, plus, minus)

    def tag(self) -> str:
        return f"{self.plus}-{self.minus}"

    @classmethod
    def parse(cls, text: str) -> "Weight":
        try:
            plus, minus = text.split("-")
            return cls(int(plus), int(minus))
        except (ValueError, TypeError, AttributeError) as exc:
            raise DataError(f"cannot parse weight {text!r}; expected PLUS-MINUS") from exc


def default_weight_grid() -> tuple[Weight, ...]:
    """Sweep grid: {1,2,3,4,5,10} x {1,2,3,4,5,10} plus 1-1000 and 1000-1."""
    steps = (1, 2, 3, 4, 5, 10)
    grid = [Weight(p, m) for p in steps for m in steps]
    grid.append(Weight(1, 1000))
    grid.append(Weight(1000, 1))
    return tuple(grid)


class TermScoreTable(namedtuple("TermScoreTable", "terms scores weight source")):
    """Terms in tie-break order and their scores; no weight means external scores in [0, 1]."""

    __slots__ = ()

    def __new__(cls, terms: Sequence[str], scores: Sequence[Score], weight: Weight | None = None,
                source: str | None = None) -> "TermScoreTable":
        if weight is None:
            bad = {t: s for t, s in zip(terms, scores) if not 0 <= s <= 1}
            if bad:
                raise ValueError(f"external scores outside [0, 1]: {bad}")
        return super().__new__(cls, terms, scores, weight, source)


class MinScorePolicy(NamedTuple):
    """Filter applied before ranking: keep scores >= threshold, or all for None."""

    threshold: Fraction | None = None

    @classmethod
    def all_terms(cls) -> "MinScorePolicy":
        return cls()

    @classmethod
    def at_least(cls, threshold) -> "MinScorePolicy":
        return cls(exact_fraction(threshold))

    @classmethod
    def parse(cls, text: str) -> "MinScorePolicy":
        # "none"/"all" keep every term; "zero" is the >= 0 cut.
        word = string(text).strip().lower()
        if word in ("none", "all"):
            return cls.all_terms()
        if word == "zero":
            return cls.at_least(0)
        try:
            return cls(number(word, text=True))
        except DataError as exc:
            raise DataError(f"cannot parse policy {text!r}") from exc

    def tag(self) -> str:
        if self.threshold is None:
            return "all"
        return f"at_least({float(self.threshold)})"

    def keeps(self, score: Score) -> bool:
        return self.threshold is None or score >= self.threshold


class DangerousWordList:
    """Terms ordered most dangerous first, and the one record of how they were ranked."""

    __slots__ = ("words", "policy", "weight", "source")

    def __init__(self, words: tuple[tuple[str, Score], ...], policy: MinScorePolicy,
                 weight: Weight | None = None, source: str | None = None) -> None:
        for key, value in zip(self.__slots__, (words, policy, weight, source)):
            object.__setattr__(self, key, value)

    def __setattr__(self, key, value) -> None:
        raise AttributeError(f"cannot set {key}: a DangerousWordList is read-only")

    def _values(self) -> tuple:
        return self.words, self.policy, self.weight, self.source

    def __eq__(self, other) -> bool:
        return type(other) is DangerousWordList and self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __len__(self) -> int:
        return len(self.words)


def score_frequency(train: LabeledCorpus, weight: Weight) -> TermScoreTable:
    """Frequency-based scores of the terms that the training names hold."""
    if not train.vulnerable and not train.benign:
        raise DataError("cannot score an empty training corpus")
    terms, v, b = train.term_counts
    plus, minus = weight
    scores = [plus * x - minus * y for x, y in zip(v, b)]
    return TermScoreTable(terms, scores, weight)


def rank(table: TermScoreTable, policy: MinScorePolicy) -> DangerousWordList:
    """Filter by policy, then sort by score descending, keeping the table's order in ties.

    So score ties go to the higher vulnerable-name count, then to term text
    (see `LabeledCorpus.term_counts`); external tables list their terms in
    text order, so their ties go to term text. The ordering is
    deterministic, so exported lists are byte-reproducible.
    """
    kept = zip(table.terms, table.scores)
    if policy.threshold is not None:
        if table.weight is None and not 0 <= policy.threshold <= 1:
            raise DataError(
                f"external policy threshold must lie in [0, 1], got {policy.threshold}"
            )
        # Frequency scores are ints, so the int ceil(threshold) is an exact bound.
        bound = policy.threshold if table.weight is None else math.ceil(policy.threshold)
        kept = [(t, s) for t, s in kept if s >= bound]
    words = tuple(sorted(kept, key=itemgetter(1), reverse=True))
    return DangerousWordList(words=words, policy=policy, weight=table.weight, source=table.source)


def load_external_scores(path: str | Path) -> TermScoreTable:
    """Load a `term,score` CSV (header optional) as an external score table."""
    path = Path(path)
    scores: dict[str, Fraction] = {}
    for line, fields in csv_rows(path, "score file", "term"):
        if line == 1 and [f.lower() for f in fields[:2]] == ["term", "score"]:
            continue
        if len(fields) < 2:
            raise DataError(f"{path}:{line}: expected term,score")
        term, text = fields[:2]
        try:
            score = parse_fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DataError(f"{path}:{line}: bad score {text!r}") from exc
        if not 0 <= score <= 1:
            raise DataError(f"{path}:{line}: score {text} outside [0, 1]")
        if term in scores:
            raise DataError(f"{path}:{line}: duplicate term {term!r}")
        scores[term] = score
    terms = sorted(scores)  # so that rank leaves score ties in text order
    return TermScoreTable(terms, list(map(scores.__getitem__, terms)), source=str(path))


def write_word_list_csv(words: DangerousWordList, path: str | Path) -> None:
    """Export as `rank,term,score` CSV, rank starting at 1."""
    rows = ([i, term, score_out(score)] for i, (term, score) in enumerate(words.words, start=1))
    write_csv(path, ["rank", "term", "score"], rows)


def score_out(score: Score) -> int | float:
    """A score as files show it: an int stays an int, a Fraction becomes a float."""
    return score if isinstance(score, int) else float(score)
