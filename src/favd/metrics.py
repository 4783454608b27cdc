"""Confusion-matrix metrics, the two baselines, and ROC counts.

Everything is computed in exact rational arithmetic. The zero-denominator
convention is: precision, recall, and F-scores are 0 whenever TP is 0, which
keeps degenerate folds and baselines well defined.

`f_beta_terms`, the one copy of the F-beta formula, gives an integer
numerator and denominator, which the tuner compares by cross-multiplying;
`f_beta` makes a Fraction of them. Both baselines are `f_beta` at their counts.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_THRESHOLD_STEP
from .errors import DataError
from .predictor import ConfusionCounts, GridCounts, count_flagged
from .rational import exact_fraction

if TYPE_CHECKING:
    from .corpus import EncodedCorpus, LabeledCorpus
    from .ranking import DangerousWordList


# A step of 1e-5 gives 100,001 thresholds; a finer step makes a grid too large to search.
MAX_THRESHOLDS = 100_001


def threshold_values(step) -> tuple[Fraction, ...]:
    """Multiples of `step` from 0 through 1, with 1 always present.

    A step that would give more than MAX_THRESHOLDS values is a DataError.
    """
    step = exact_fraction(step)
    if not 0 < step <= 1:
        raise ValueError(f"threshold step must lie in (0, 1], got {step}")
    count = 1 // step + 1
    if count > MAX_THRESHOLDS:
        raise DataError(f"threshold step too fine: over {MAX_THRESHOLDS} thresholds")
    values = [k * step for k in range(count)]
    if values[-1] != 1:
        values.append(Fraction(1))
    return tuple(values)


def precision(c: ConfusionCounts) -> Fraction:
    if c.tp == 0:
        return Fraction(0)
    return Fraction(c.tp, c.tp + c.fp)


def recall(c: ConfusionCounts) -> Fraction:
    if c.tp == 0:
        return Fraction(0)
    return Fraction(c.tp, c.tp + c.fn)


def beta_squared(beta) -> tuple[int, int]:
    """beta^2 as the integers (r, s) of r/s in lowest terms; beta must be positive."""
    b = exact_fraction(beta)
    if b <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    b2 = b * b
    return b2.numerator, b2.denominator


def f_beta_terms(tp: int, fp: int, fn: int, r: int, s: int) -> tuple[int, int]:
    """F-beta for beta^2 = r/s as (numerator, denominator), not reduced.

    (r + s) TP / ((r + s) TP + r FN + s FP), the usual formula times s/s, or
    (0, 1) when TP is 0; the denominator is always positive.
    """
    if tp == 0:
        return 0, 1
    num = (r + s) * tp
    return num, num + r * fn + s * fp


def f_beta(c: ConfusionCounts, beta) -> Fraction:
    """(1 + b^2) TP / ((1 + b^2) TP + b^2 FN + FP); 0 when TP is 0."""
    return Fraction(*f_beta_terms(c.tp, c.fp, c.fn, *beta_squared(beta)))


def all_vulnerable_f2(vuln_count: int, benign_count: int) -> Fraction:
    """F2 of the predictor that labels everything vulnerable: 5V / (5V + B)."""
    if vuln_count + benign_count <= 0:
        raise DataError("all-vulnerable baseline needs a non-empty corpus")
    return f_beta(ConfusionCounts(tp=vuln_count, fp=benign_count), 2)


def random_baseline_f2(p) -> Fraction:
    """Expected F2 of a coin-flip predictor on a corpus with vulnerable fraction p.

    F2 at the flip's expected counts (p/2 of the corpus each for TP and FN,
    (1 - p)/2 for FP), which is 5p / (8p + 1).
    """
    p = exact_fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"fraction must lie in [0, 1], got {p}")
    return f_beta(ConfusionCounts(tp=p / 2, fp=(1 - p) / 2, fn=p / 2), 2)


def roc(
    dangerous: DangerousWordList,
    cutoffs: Sequence[int],
    corpus: EncodedCorpus | LabeledCorpus,
    thresholds: Sequence[Fraction] = threshold_values(DEFAULT_THRESHOLD_STEP),
) -> GridCounts:
    """Names flagged at each cutoff, in the given order, and each threshold above 0, descending.

    Cutoff j's TPR and FPR at thresholds[i] are tp[i][j] / n_pos and fp[i][j] / n_neg.
    Cutoffs may repeat and may exceed the list length. Threshold 0 is left out: a
    curve's all-vulnerable anchor (1, 1) is the caller's to add. A corpus without
    both classes has no rates, a DataError.
    """
    bad = [cutoff for cutoff in cutoffs if cutoff < 1]
    if bad:
        raise ValueError(f"cutoffs must be >= 1, got {bad}")
    if not all(0 <= threshold <= 1 for threshold in thresholds):
        raise ValueError(f"thresholds {[str(t) for t in thresholds]} not all in [0, 1]")
    kept = [t for t in sorted(set(thresholds), reverse=True) if t != 0]
    counts = count_flagged(dangerous, corpus, cutoffs, kept)
    if not counts.n_pos or not counts.n_neg:
        raise DataError("ROC rates need at least one vulnerable and one benign name")
    return counts
