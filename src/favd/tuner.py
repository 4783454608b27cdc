"""Search for the best (cutoff, threshold) pair, and optionally the weight.

The search is an exhaustive sweep of the cutoff x threshold grid: one call to
`predictor.count_flagged` counts every cell at once, so every cell gets its
exact F-score and no search nondeterminism is left. Each cell's score is the
integer numerator/denominator pair of `metrics.f_beta_terms`, and cells are
compared by exact integer cross-products, so no float or Fraction is made per
cell and argmax ties resolve identically on every run: better score first,
then smaller cutoff, then larger threshold, and for weight sweeps the earlier
grid entry. Only the winner's score becomes a Fraction: its `train_f2` is one
`metrics.f_beta` call on the winning cell's counts. `SearchGrid` checks its
thresholds once and holds them unique and descending, so no search call does.

The weight sweep tunes each distinct ranking once: the grid reads nothing
of a ranked list but its order of terms, so a weight that ranks the same
terms in the same order as an earlier one reuses that weight's cells, and
cannot win, because ties go to the earlier weight.

A trace, when asked for, is a list that receives, for each ranked list tuned
or reused, its weight (None for external scores) and its `GridCounts` (the
count matrices, no record per cell), which `trace_text` writes as CSV rows.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from . import DEFAULT_BETA, DEFAULT_CUTOFF_STEP, DEFAULT_THRESHOLD_STEP
from .corpus import EncodedCorpus, LabeledCorpus
from .metrics import beta_squared, f_beta, f_beta_terms, threshold_values
from .predictor import ConfusionCounts, TunedModel, count_flagged
from .ranking import (
    DangerousWordList,
    MinScorePolicy,
    Weight,
    default_weight_grid,
    rank,
    score_frequency,
)


class SearchGrid(namedtuple("SearchGrid", "cutoff_step thresholds weights")):
    """Grid axes for FindBest and the weight sweep; thresholds are kept unique and descending."""

    __slots__ = ()

    def __new__(cls, cutoff_step: int = DEFAULT_CUTOFF_STEP,
                thresholds: tuple[Fraction, ...] = threshold_values(DEFAULT_THRESHOLD_STEP),
                weights: tuple[Weight, ...] = default_weight_grid()) -> "SearchGrid":
        if cutoff_step < 1:
            raise ValueError("cutoff_step must be >= 1")
        if not thresholds or not weights:
            raise ValueError("threshold and weight grids must be non-empty")
        if any(not 0 <= t <= 1 for t in thresholds):
            raise ValueError("thresholds must lie in [0, 1]")
        thresholds = tuple(sorted(set(thresholds), reverse=True))
        return super().__new__(cls, cutoff_step, thresholds, weights)

    def cutoff_values(self, list_length: int) -> tuple[int, ...]:
        """1, 1+step, 1+2*step, ... capped at and always including list_length."""
        return (*range(1, list_length, self.cutoff_step), list_length) if list_length >= 1 else ()


class GridCounts(NamedTuple):
    """A ranking's tp[i][j] and fp[i][j], the names flagged at thresholds[i] and cutoffs[j]."""

    cutoffs: tuple[int, ...]
    thresholds: tuple[Fraction, ...]
    tp: list[list[int]]
    fp: list[list[int]]
    n_pos: int
    n_neg: int


class TuneResult(NamedTuple):
    model: TunedModel
    train_f2: Fraction


def find_best(
    dangerous: DangerousWordList,
    train: EncodedCorpus | LabeledCorpus,
    grid: SearchGrid,
    beta=DEFAULT_BETA,
    trace: list | None = None,
) -> TuneResult:
    """Pick the (cutoff, threshold) cell maximizing training F-beta.

    An empty dangerous list yields the degenerate all-benign model with
    score 0. A `trace` list receives (dangerous.weight, the grid's counts).
    """
    cutoffs, thresholds = grid.cutoff_values(len(dangerous.words)), grid.thresholds
    tp, fp = count_flagged(dangerous, train, cutoffs, thresholds)
    n_pos, n_neg = train.encoded.n_vulnerable, train.encoded.n_benign
    r, s = beta_squared(beta)
    best_cutoff, best_threshold, best_tp, best_fp = 0, Fraction(1), 0, 0
    best_num, best_den = 0, 1
    # Canonical order (cutoff ascending, threshold descending) plus strict
    # improvement gives the tie-break: smaller cutoff, then larger threshold.
    # Cutoff 0 means no cell yet, and stays for an empty list.
    for cutoff, tp_column, fp_column in zip(cutoffs, zip(*tp), zip(*fp)):
        for threshold, t, f in zip(thresholds, tp_column, fp_column):
            num, den = f_beta_terms(t, f, n_pos - t, r, s)
            if not best_cutoff or num * best_den > best_num * den:
                best_cutoff, best_threshold, best_tp, best_fp = cutoff, threshold, t, f
                best_num, best_den = num, den
    if trace is not None:
        trace.append((dangerous.weight, GridCounts(cutoffs, thresholds, tp, fp, n_pos, n_neg)))
    model = TunedModel(dangerous, best_cutoff, best_threshold)
    train_f2 = f_beta(ConfusionCounts(best_tp, best_fp, n_pos - best_tp, n_neg - best_fp), beta)
    return TuneResult(model, train_f2)


def search_weights(
    train: EncodedCorpus | LabeledCorpus,
    policy: MinScorePolicy,
    grid: SearchGrid,
    beta=DEFAULT_BETA,
    trace: list | None = None,
) -> TuneResult:
    """Score and rank once per weight, tune once per ranking; return the best result.

    Ties go to the earlier weight in the grid, so a weight whose ranked terms
    repeat an earlier weight's is not tuned again: its cells would be the
    same, and it could not win. A `trace` list receives one (weight, grid
    counts) pair per weight, in grid order; a repeated ranking reuses the
    `GridCounts` object of the first weight that ranked so.
    """
    best: TuneResult | None = None
    tuned: dict[tuple[str, ...], GridCounts | None] = {}  # ranked terms -> grid counts
    for weight in grid.weights:
        dangerous = rank(score_frequency(train, weight, policy), policy)
        key = tuple(map(itemgetter(0), dangerous.words))
        if key in tuned:
            if trace is not None:
                trace.append((weight, tuned[key]))
            continue
        result = find_best(dangerous, train, grid, beta=beta, trace=trace)
        tuned[key] = trace[-1][1] if trace is not None else None
        if best is None or result.train_f2 > best.train_f2:
            best = result
    return best


TRACE_HEADER = ["weight", "cutoff", "threshold", "tp", "fp", "fn", "tn", "f2"]


def trace_text(trace: list, beta=DEFAULT_BETA):
    """A trace's CSV rows as text, a chunk per cutoff of each weight, in `trace` order.

    Each ranking's columns are formatted once, tagged for each weight by one `str.replace`,
    and held only until the last weight that shares them.
    """
    r, s = beta_squared(beta)
    last = {id(grid): i for i, (_, grid) in enumerate(trace)}  # each ranking's last weight
    held = {}  # id of a ranking's counts -> its columns less the tag, until its last weight
    for i, (weight, grid) in enumerate(trace):
        columns = held.pop(id(grid), None) or _columns(grid, r, s)  # formatted as it is written
        if last[id(grid)] > i:  # a later weight shares the ranking: keep its text till then
            held[id(grid)] = columns = list(columns)
        tag = weight.tag() if weight else ""
        for column in columns:
            yield tag + column[:-1].replace("\n", "\n" + tag) + "\n"


def _columns(grid: GridCounts, r: int, s: int):
    """Yield a ranking's trace lines less the tag, cutoff ascending, a cutoff's lines (threshold
    descending) at a time. Class sizes and beta fix a `tp,fp,fn,tn,f2` tail by (tp, fp)."""
    # Int true division rounds correctly, as float(Fraction) does.
    tails = {(t, f): f"{t},{f},{grid.n_pos - t},{grid.n_neg - f},{num / den:.6f}\n"
             for t, f in set(zip(chain(*grid.tp), chain(*grid.fp)))
             for num, den in [f_beta_terms(t, f, grid.n_pos - t, r, s)]}
    labels = [f"{float(threshold)}," for threshold in grid.thresholds]
    for head, tps, fps in zip(map(",{},".format, grid.cutoffs), zip(*grid.tp), zip(*grid.fp)):
        yield "".join([head + label + tails[pair] for label, pair in zip(labels, zip(tps, fps))])
