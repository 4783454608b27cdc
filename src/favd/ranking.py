"""Term dangerousness scoring and ranked dangerous-word lists.

Frequency scoring gives every unique term of a vulnerable name `plus` and
every unique term of a benign name `-minus`. A term therefore scores
plus*V_t - minus*B_t where V_t and B_t count the names (not occurrences)
containing it; both counts come from the corpus encoding, so trying another
weight does not split the names again. External per-term scores in
[0, 1] can be loaded from CSV instead; they plug into the same rank step, so
any offline scorer can drive the rest of the pipeline.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
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


class TermScoreTable(namedtuple("TermScoreTable", "scores weight source vuln_counts")):
    """Scores per term and what ranks them; no weight means external scores in [0, 1]."""

    __slots__ = ()

    def __new__(cls, scores: dict[str, Score], weight: Weight | None = None,
                source: str | None = None, vuln_counts: dict | None = None) -> "TermScoreTable":
        if weight is None:
            bad = {t: s for t, s in scores.items() if not 0 <= s <= 1}
            if bad:
                raise ValueError(f"external scores outside [0, 1]: {bad}")
        return super().__new__(cls, scores, weight, source, vuln_counts or {})


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
    """Frequency-based scores over the unique terms of each training name."""
    if not train.vulnerable and not train.benign:
        raise DataError("cannot score an empty training corpus")
    encoded = train.encoded
    scores: dict[str, int] = {}
    vuln_counts: dict[str, int] = {}
    for term, v, b in zip(encoded.vocabulary, encoded.vulnerable_counts, encoded.benign_counts):
        scores[term] = weight.plus * v - weight.minus * b
        if v:
            vuln_counts[term] = v
    return TermScoreTable(scores=scores, weight=weight, vuln_counts=vuln_counts)


def rank(table: TermScoreTable, policy: MinScorePolicy) -> DangerousWordList:
    """Filter by policy and sort by score descending with a total tie-break.

    Score ties go to the higher vulnerable-name count, then to term text;
    external tables have no counts, so their ties go to term text. The
    ordering is deterministic, so exported lists are byte-reproducible.
    """
    kept = table.scores.items()
    if policy.threshold is not None:
        if table.weight is None and not 0 <= policy.threshold <= 1:
            raise DataError(
                f"external policy threshold must lie in [0, 1], got {policy.threshold}"
            )
        # Frequency scores are ints, so the int ceil(threshold) is an exact bound.
        bound = policy.threshold if table.weight is None else math.ceil(policy.threshold)
        kept = [(t, s) for t, s in kept if s >= bound]
    vc = table.vuln_counts
    words = tuple(sorted(kept, key=lambda item: (-item[1], -vc.get(item[0], 0), item[0])))
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
    return TermScoreTable(scores=scores, source=str(path))


def write_word_list_csv(words: DangerousWordList, path: str | Path) -> None:
    """Export as `rank,term,score` CSV, rank starting at 1."""
    rows = ([i, term, score_out(score)] for i, (term, score) in enumerate(words.words, start=1))
    write_csv(path, ["rank", "term", "score"], rows)


def score_out(score: Score) -> int | float:
    """A score as files show it: an int stays an int, a Fraction becomes a float."""
    return score if isinstance(score, int) else float(score)
