"""Confusion-matrix metrics, baseline closed forms, and ROC curves.

Everything is computed in exact rational arithmetic. The zero-denominator
convention is: precision, recall, and F-scores are 0 whenever TP is 0, which
keeps degenerate folds and baselines well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .corpus import LabeledCorpus
from .errors import DataError
from .predictor import ConfusionCounts, count_flagged
from .ranking import DangerousWordList
from .rational import exact_fraction


def precision(c: ConfusionCounts) -> Fraction:
    if c.tp == 0:
        return Fraction(0)
    return Fraction(c.tp, c.tp + c.fp)


def recall(c: ConfusionCounts) -> Fraction:
    if c.tp == 0:
        return Fraction(0)
    return Fraction(c.tp, c.tp + c.fn)


def f_beta(c: ConfusionCounts, beta) -> Fraction:
    """(1 + b^2) TP / ((1 + b^2) TP + b^2 FN + FP); 0 when TP is 0."""
    b = exact_fraction(beta)
    if b <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if c.tp == 0:
        return Fraction(0)
    b2 = b * b
    return (1 + b2) * c.tp / ((1 + b2) * c.tp + b2 * c.fn + c.fp)


def all_vulnerable_f2(vuln_count: int, benign_count: int) -> Fraction:
    """F2 of the predictor that labels everything vulnerable: 5V / (5V + B)."""
    if vuln_count + benign_count <= 0:
        raise DataError("all-vulnerable baseline needs a non-empty corpus")
    if vuln_count == 0:
        return Fraction(0)
    return Fraction(5 * vuln_count, 5 * vuln_count + benign_count)


def random_baseline_f2(p) -> Fraction:
    """Expected F2 of a coin-flip predictor on a corpus with vulnerable fraction p."""
    p = exact_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    if p == 0:
        return Fraction(0)
    return Fraction(5, 2) * p / (4 * p + Fraction(1, 2))


@dataclass(frozen=True)
class RocPoint:
    threshold: Fraction
    tpr: Fraction
    fpr: Fraction


@dataclass(frozen=True)
class RocCurve:
    points: tuple[RocPoint, ...]
    cutoff: int


def default_thresholds() -> tuple[Fraction, ...]:
    """1.00 down to 0.00 in steps of 0.05."""
    return tuple(Fraction(k, 20) for k in range(20, -1, -1))


def roc(
    dangerous: DangerousWordList,
    cutoff: int,
    corpus: LabeledCorpus,
    thresholds: tuple[Fraction, ...] | None = None,
    include_zero_endpoint: bool = False,
) -> RocCurve:
    """TPR/FPR per threshold, threshold descending, at one fixed cutoff.

    The threshold-0 point is the degenerate all-vulnerable anchor (1, 1); it
    clutters plots, so it is only emitted when explicitly requested.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if not corpus.vulnerable or not corpus.benign:
        raise DataError("ROC rates need at least one vulnerable and one benign name")
    if thresholds is None:
        thresholds = default_thresholds()
    n_pos, n_neg = len(corpus.vulnerable), len(corpus.benign)
    kept = [t for t in sorted(set(thresholds), reverse=True) if t != 0]
    tp, fp = count_flagged(dangerous, corpus, [cutoff], kept)
    points = [
        RocPoint(threshold=threshold, tpr=Fraction(int(t), n_pos), fpr=Fraction(int(f), n_neg))
        for threshold, t, f in zip(kept, tp[:, 0], fp[:, 0])
    ]
    if include_zero_endpoint:
        points.append(RocPoint(Fraction(0), Fraction(1), Fraction(1)))
    return RocCurve(points=tuple(points), cutoff=cutoff)
