"""Classification of identifiers against a tuned dangerous-word model.

The rule: split the identifier, take the fraction of its unique terms that
appear among the first `cutoff` dangerous words, and predict vulnerable when
that fraction strictly exceeds `threshold`. The strict inequality makes a
threshold of 1.0 unsatisfiable and anchors ROC curves at (0, 0).

`classify` applies the rule to one name: a split, one set intersection with
the top terms that the model prepares once, and one integer comparison by
the threshold's numerator and denominator. `count_flagged` applies it to a
whole corpus at many (cutoff, threshold) pairs at once; tuning, ROC curves
and corpus evaluation all go through it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from itertools import compress, repeat
from typing import TYPE_CHECKING, NamedTuple

from .ranking import DangerousWordList, Weight
from .splitter import split

if TYPE_CHECKING:
    from .corpus import EncodedCorpus, LabeledCorpus

VULNERABLE = "vulnerable"
BENIGN = "benign"


class ConfusionCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0


class TunedModel(namedtuple("TunedModel", "dangerous cutoff threshold")):
    """Dangerous word list plus the cutoff/threshold pair that deploys it."""

    def __new__(cls, dangerous: DangerousWordList, cutoff: int,
                threshold: Fraction) -> "TunedModel":
        if len(dangerous.words) == 0:
            if cutoff != 0:
                raise ValueError("empty dangerous list requires cutoff 0")
        elif not 1 <= cutoff <= len(dangerous.words):
            raise ValueError(f"cutoff {cutoff} outside [1, {len(dangerous.words)}]")
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold {threshold} outside [0, 1]")
        return super().__new__(cls, dangerous, cutoff, threshold)

    @property
    def weight(self) -> Weight | None:
        return self.dangerous.weight

    @cached_property
    def top_terms(self) -> frozenset[str]:
        return frozenset(term for term, _ in self.dangerous.words[: self.cutoff])


class Prediction(NamedTuple):
    identifier: str
    label: str
    matched_terms: frozenset[str]
    term_count: int  # unique terms of the identifier

    @property
    def percentage(self) -> Fraction:
        """Share of the unique terms among the top words; 0 for no terms."""
        return Fraction(len(self.matched_terms), self.term_count or 1)


def classify(identifier: str, model: TunedModel, terms: list[str] | None = None) -> Prediction:
    """Label one identifier, split here unless its `terms` are given; no terms is benign at 0."""
    terms = frozenset(split(identifier) if terms is None else terms)
    matched = terms & model.top_terms
    p, q = model.threshold.numerator, model.threshold.denominator
    # |matched| / |terms| > p / q, cross-multiplied; false when terms is empty.
    label = VULNERABLE if len(matched) * q > p * len(terms) else BENIGN
    return Prediction(identifier, label, matched, len(terms))


def count_flagged(
    dangerous: DangerousWordList,
    corpus: EncodedCorpus | LabeledCorpus,
    cutoffs: Sequence[int],
    thresholds: Sequence[Fraction],
) -> tuple[list[list[int]], list[list[int]]]:
    """Vulnerable (tp) and benign (fp) names flagged at each threshold and cutoff.

    Both are lists of len(thresholds) rows of len(cutoffs) ints, tp[i][j]
    for thresholds[i] and cutoffs[j], and hold what classify() gives name by
    name. A name with t unique terms is flagged at threshold p/q once more
    than p*t/q of its terms rank within the cutoff, that is from the rank of
    its (floor(p*t/q) + 1)-th best-ranked term on. Thresholds are trusted to lie
    in [0, 1]: `tuner.SearchGrid`, `TunedModel` and `metrics.roc` check them.
    """
    encoded = corpus.encoded
    rank_of = [0] * len(encoded.vocabulary)  # 0: the term is not ranked
    for position, (term, _) in enumerate(dangerous.words, start=1):
        term_id = encoded.vocabulary.get(term)
        if term_id is not None:
            rank_of[term_id] = position
    counts = []
    for groups in (encoded.vulnerable, encoded.benign):
        flagged = {t: _flagged_at(ids, t, rank_of, cutoffs) for t, ids in groups.items()}
        rows = []
        for threshold in thresholds:
            p, q = threshold.numerator, threshold.denominator
            parts = [flagged[t][p * t // q] for t in flagged if p * t // q < t]
            rows.append(list(map(sum, zip(*parts))) if parts else [0] * len(cutoffs))
        counts.append(rows)
    return counts[0], counts[1]


def _flagged_at(
    ids: array, t: int, rank_of: list[int], cutoffs: Sequence[int]
) -> list[list[int]]:
    """For names of t terms, [j][k] counts those whose j+1 best ranks are within cutoffs[k].

    `ids` holds t term ids per name. Only ranked entries are visited, best
    rank first, so flips[j] receives each name's (j+1)-th best rank in
    ascending order; a name with k ranked terms appears in flips[0..k-1].
    """
    ranks = list(map(rank_of.__getitem__, ids))
    ranked = sorted(compress(range(len(ranks)), ranks), key=ranks.__getitem__)
    flips: list[list[int]] = [[] for _ in range(t)]
    seen = [0] * (len(ranks) // t)  # ranked terms of each name met so far
    for position in ranked:
        name = position // t
        j = seen[name]
        seen[name] = j + 1
        flips[j].append(ranks[position])
    return [list(map(bisect_right, repeat(flip), cutoffs)) for flip in flips]


def classify_corpus(corpus: EncodedCorpus | LabeledCorpus, model: TunedModel) -> ConfusionCounts:
    """Confusion counts of the model over the corpus, vulnerable as positive."""
    encoded = corpus.encoded
    [[tp]], [[fp]] = count_flagged(model.dangerous, encoded, [model.cutoff], [model.threshold])
    return ConfusionCounts(tp=tp, fp=fp, fn=encoded.n_vulnerable - tp, tn=encoded.n_benign - fp)
