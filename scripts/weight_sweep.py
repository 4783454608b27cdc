#!/usr/bin/env python3
"""Mean cross-validated F2 per fixed weight on a labeled corpus.

For each plus-minus pair this ranks with that single weight (no weight
search), tunes cutoff/threshold per training fold, and reports the mean
held-out F2. Useful for eyeballing where the weight axis pays off, with both
min-score policies side by side.
"""

import argparse
import csv
from fractions import Fraction
from itertools import product

from favd.corpus import clean, load_lists, make_kfold
from favd.metrics import f_beta
from favd.predictor import classify_corpus
from favd.ranking import MinScorePolicy, Weight, default_weight_grid
from favd.tuner import SearchGrid, search_weights


POLICIES = (MinScorePolicy.at_least(0), MinScorePolicy.all_terms())


def mean_cv_f2(corpus, weights, k, seed, cutoff_step):
    """Mean held-out F2 per (weight, policy) pair, over folds built once each."""
    grids = {w: SearchGrid(cutoff_step=cutoff_step, weights=(w,)) for w in weights}
    totals = dict.fromkeys(product(grids, POLICIES), Fraction(0))
    folds = 0
    for train, test in make_kfold(corpus, k, seed).folds:
        for weight, policy in totals:
            result = search_weights(train, policy, grids[weight])
            totals[weight, policy] += f_beta(classify_corpus(test, result.model), 2)
        folds += 1
    return {pair: total / folds for pair, total in totals.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vuln", required=True)
    parser.add_argument("--benign", required=True)
    parser.add_argument("--kfold", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cutoff-step", type=int, default=100)
    parser.add_argument("--weights", help="comma list of PLUS-MINUS pairs (default grid)")
    parser.add_argument("--out", default="weight_sweep.csv")
    args = parser.parse_args()

    corpus = clean(*load_lists(args.vuln, args.benign))
    if args.weights:
        weights = tuple(Weight.parse(w) for w in args.weights.split(","))
    else:
        weights = default_weight_grid()

    means = mean_cv_f2(corpus, weights, args.kfold, args.seed, args.cutoff_step)
    rows = []
    print(f"{'weight':>8} {'F2 (min 0)':>11} {'F2 (all)':>9}")
    for weight in weights:
        zero, keep_all = (means[weight, policy] for policy in POLICIES)
        print(f"{weight.tag():>8} {float(zero):>11.3f} {float(keep_all):>9.3f}")
        rows.append([weight.tag(), f"{float(zero):.6f}", f"{float(keep_all):.6f}"])

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["weight", "f2_min_zero", "f2_all"])
        writer.writerows(rows)
    print(f"written to {args.out}")


if __name__ == "__main__":
    main()
