"""Search for the best (cutoff, threshold) pair, and optionally the weight.

The search is an exhaustive sweep of the cutoff x threshold grid: one call to
`predictor.count_flagged` counts every cell at once, so every cell gets its
exact F-score and no search nondeterminism is left. All F-scores are exact
rationals, so argmax ties resolve identically on every run: better score
first, then smaller cutoff, then larger threshold, and for weight sweeps the
earlier grid entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .corpus import LabeledCorpus
from .metrics import default_thresholds, f_beta
from .predictor import ConfusionCounts, TunedModel, count_flagged
from .ranking import (
    DangerousWordList,
    MinScorePolicy,
    Weight,
    default_weight_grid,
    rank,
    score_frequency,
)
from .rational import exact_fraction

DEFAULT_BETA = Fraction(2)


def threshold_values(step) -> tuple[Fraction, ...]:
    """Multiples of `step` from 0 through 1, with 1 always present."""
    step = exact_fraction(step)
    if not 0 < step <= 1:
        raise ValueError(f"threshold step must lie in (0, 1], got {step}")
    values = []
    k = 0
    while k * step <= 1:
        values.append(k * step)
        k += 1
    if values[-1] != 1:
        values.append(Fraction(1))
    return tuple(values)


@dataclass(frozen=True)
class SearchGrid:
    """Grid axes for FindBest and the weight sweep."""

    cutoff_step: int = 100
    thresholds: tuple[Fraction, ...] = default_thresholds()
    weights: tuple[Weight, ...] = default_weight_grid()

    def __post_init__(self) -> None:
        if self.cutoff_step < 1:
            raise ValueError("cutoff_step must be >= 1")
        if not self.thresholds or not self.weights:
            raise ValueError("threshold and weight grids must be non-empty")
        if any(not 0 <= t <= 1 for t in self.thresholds):
            raise ValueError("thresholds must lie in [0, 1]")

    def cutoff_values(self, list_length: int) -> tuple[int, ...]:
        """1, 1+step, 1+2*step, ... capped at and always including list_length."""
        if list_length < 1:
            return ()
        values = list(range(1, list_length + 1, self.cutoff_step))
        if values[-1] != list_length:
            values.append(list_length)
        return tuple(values)


@dataclass(frozen=True)
class GridCell:
    cutoff: int
    threshold: Fraction
    counts: ConfusionCounts
    f2: Fraction


@dataclass(frozen=True)
class TuneResult:
    model: TunedModel
    train_f2: Fraction
    grid_trace: tuple[GridCell, ...] | None = None


def find_best(
    dangerous: DangerousWordList,
    train: LabeledCorpus,
    grid: SearchGrid,
    beta=DEFAULT_BETA,
    want_trace: bool = False,
) -> TuneResult:
    """Pick the (cutoff, threshold) cell maximizing training F-beta.

    An empty dangerous list yields the degenerate all-benign model with
    score 0.
    """
    cutoffs = grid.cutoff_values(len(dangerous))
    thresholds = tuple(sorted(set(grid.thresholds), reverse=True))
    tp, fp = (counts.tolist() for counts in count_flagged(dangerous, train, cutoffs, thresholds))
    n_pos, n_neg = len(train.vulnerable), len(train.benign)
    best: GridCell | None = None
    trace: list[GridCell] = []
    # Canonical order (cutoff ascending, threshold descending) plus strict
    # improvement gives the tie-break: smaller cutoff, then larger threshold.
    for j, cutoff in enumerate(cutoffs):
        for i, threshold in enumerate(thresholds):
            counts = ConfusionCounts(
                tp=tp[i][j], fp=fp[i][j], fn=n_pos - tp[i][j], tn=n_neg - fp[i][j]
            )
            cell = GridCell(cutoff, threshold, counts, f_beta(counts, beta))
            if want_trace:
                trace.append(cell)
            if best is None or cell.f2 > best.f2:
                best = cell
    if best is None:
        best = GridCell(0, Fraction(1), ConfusionCounts(fn=n_pos, tn=n_neg), Fraction(0))
    model = TunedModel(
        dangerous=dangerous,
        cutoff=best.cutoff,
        threshold=best.threshold,
        policy=dangerous.policy,
        weight=dangerous.weight,
        source=dangerous.source,
    )
    return TuneResult(model, best.f2, tuple(trace) if want_trace else None)


def search_weights(
    train: LabeledCorpus,
    policy: MinScorePolicy,
    grid: SearchGrid,
    beta=DEFAULT_BETA,
    want_trace: bool = False,
    trace_collector: list | None = None,
) -> TuneResult:
    """Score, rank, and tune once per weight; return the best overall result.

    Ties go to the earlier weight in the grid. When `trace_collector` is a
    list it receives one (weight, cells) pair per weight tried.
    """
    best: TuneResult | None = None
    for weight in grid.weights:
        table = score_frequency(train, weight)
        dangerous = rank(table, policy)
        result = find_best(
            dangerous, train, grid, beta=beta,
            want_trace=want_trace or trace_collector is not None,
        )
        if trace_collector is not None:
            trace_collector.append((weight, result.grid_trace))
        if best is None or result.train_f2 > best.train_f2:
            best = result
    if not want_trace and best is not None and best.grid_trace is not None:
        best = TuneResult(model=best.model, train_f2=best.train_f2, grid_trace=None)
    return best

