"""The cells of a trace's grid counts, one at a time, for the tests.

`tuner.find_best` traces a ranking as the `predictor.GridCounts` that
`count_flagged` returned (its count matrices, axes and class sizes), not as a
record per cell. `grid_cells` reads it back cell by cell, and scores each cell
with the textbook F-beta formula over Fractions, sharing no scoring code with
favd.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from favd.predictor import ConfusionCounts


class Cell(NamedTuple):
    cutoff: int
    threshold: Fraction
    counts: ConfusionCounts
    f2: Fraction  # F-beta at the beta given to grid_cells


def grid_cells(grid, beta=2):
    """Yield each cell of `grid`, cutoff ascending, then threshold in the grid's (descending) order."""
    b2 = Fraction(beta) ** 2
    for cutoff, tps, fps in grid.columns():
        for threshold, tp, fp in zip(grid.thresholds, tps, fps):
            fn = grid.n_pos - tp
            f2 = (1 + b2) * tp / ((1 + b2) * tp + b2 * fn + fp) if tp else Fraction(0)
            yield Cell(cutoff, threshold, ConfusionCounts(tp, fp, fn, grid.n_neg - fp), f2)
