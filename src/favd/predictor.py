"""Classification of identifiers against a tuned dangerous-word model.

The rule: split the identifier, take the fraction of its unique terms that
appear among the first `cutoff` dangerous words, and predict vulnerable when
that fraction strictly exceeds `threshold`. The strict inequality makes a
threshold of 1.0 unsatisfiable and anchors ROC curves at (0, 0).

`classify` applies the rule to one name. `count_flagged` applies it to a
whole corpus at many (cutoff, threshold) pairs at once; tuning, ROC curves
and corpus evaluation all go through it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .corpus import LabeledCorpus
from .ranking import DangerousWordList, MinScorePolicy, Weight
from .splitter import split

if TYPE_CHECKING:
    import numpy as np

VULNERABLE = "vulnerable"
BENIGN = "benign"


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn, self.tn + other.tn
        )


@dataclass
class TunedModel:
    """Dangerous word list plus the cutoff/threshold pair that deploys it."""

    dangerous: DangerousWordList
    cutoff: int
    threshold: Fraction
    policy: MinScorePolicy
    weight: Weight | None = None
    source: str | None = None
    _top: frozenset[str] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.dangerous) == 0:
            if self.cutoff != 0:
                raise ValueError("empty dangerous list requires cutoff 0")
        elif not 1 <= self.cutoff <= len(self.dangerous):
            raise ValueError(
                f"cutoff {self.cutoff} outside [1, {len(self.dangerous)}]"
            )
        if not 0 <= self.threshold <= 1:
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")

    def top_terms(self) -> frozenset[str]:
        if self._top is None:
            self._top = frozenset(term for term, _ in self.dangerous.words[: self.cutoff])
        return self._top


class Prediction(NamedTuple):
    identifier: str
    label: str
    matched_terms: frozenset[str]
    term_count: int  # unique terms of the identifier

    @property
    def percentage(self) -> Fraction:
        """Share of the unique terms among the top words; 0 for no terms."""
        return Fraction(len(self.matched_terms), self.term_count or 1)


def classify(identifier: str, model: TunedModel) -> Prediction:
    """Label one identifier. Zero split terms means percentage 0 and benign."""
    terms = frozenset(split(identifier))
    matched = terms & model.top_terms()
    threshold = model.threshold
    # |matched| / |terms| > p / q, cross-multiplied; false when terms is empty.
    vulnerable = len(matched) * threshold.denominator > threshold.numerator * len(terms)
    return Prediction(identifier, VULNERABLE if vulnerable else BENIGN, matched, len(terms))


def count_flagged(
    dangerous: DangerousWordList,
    corpus: LabeledCorpus,
    cutoffs: Sequence[int],
    thresholds: Sequence[Fraction],
) -> tuple[np.ndarray, np.ndarray]:
    """Vulnerable (tp) and benign (fp) names flagged at each threshold and cutoff.

    Both arrays have shape (len(thresholds), len(cutoffs)) and hold what
    classify() gives name by name; a threshold outside [0, 1] is a ValueError.
    A name with t unique terms is flagged at threshold p/q once more than
    p*t/q of its terms rank within the cutoff, that is from the rank of its
    (floor(p*t/q) + 1)-th best-ranked term on.
    """
    import numpy as np  # here, not at the top: favd predict and harvest never load it

    if not all(0 <= threshold <= 1 for threshold in thresholds):
        raise ValueError(f"thresholds {[str(t) for t in thresholds]} not all in [0, 1]")
    encoded = corpus.encoded
    unranked = len(dangerous) + 1
    rank_of = np.full(len(encoded.vocabulary), unranked, dtype=np.int64)
    for position, (term, _) in enumerate(dangerous.words, start=1):
        term_id = encoded.vocabulary.get(term)
        if term_id is not None:
            rank_of[term_id] = position
    sizes, starts, ranks = encoded.sorted_row_values(rank_of)  # term ranks, best first
    limits = [min(cutoff, len(dangerous)) for cutoff in cutoffs]
    n_vuln = encoded.n_vulnerable
    tp = np.empty((len(thresholds), len(limits)), dtype=np.int64)
    fp = np.empty_like(tp)
    for i, threshold in enumerate(thresholds):
        p, q = threshold.numerator, threshold.denominator
        needed = np.array([p * t // q + 1 for t in range(sizes.max(initial=0) + 1)])[sizes]
        reachable = needed <= sizes
        flips = np.full(len(sizes), unranked)
        flips[reachable] = ranks[starts[reachable] + needed[reachable] - 1]
        # Names flagged at cutoff c are those whose flip rank is at most c.
        tp[i] = np.cumsum(np.bincount(flips[:n_vuln], minlength=unranked + 1))[limits]
        fp[i] = np.cumsum(np.bincount(flips[n_vuln:], minlength=unranked + 1))[limits]
    return tp, fp


def classify_corpus(corpus: LabeledCorpus, model: TunedModel) -> ConfusionCounts:
    """Confusion counts of the model over the corpus, vulnerable as positive."""
    tp, fp = count_flagged(model.dangerous, corpus, [model.cutoff], [model.threshold])
    tp, fp = int(tp[0, 0]), int(fp[0, 0])
    return ConfusionCounts(
        tp=tp, fp=fp, fn=len(corpus.vulnerable) - tp, tn=len(corpus.benign) - fp
    )
