#!/usr/bin/env python3
"""How vocabulary sharing between classes erodes cross-validated F2.

Generates synthetic corpora at several vocabulary-overlap levels and reports
the mean 2-fold cross-validated F2 per level, next to the all-vulnerable
baseline. Overlap 0 means the vulnerable and benign name vocabularies are
disjoint (easy); overlap 1 means they are identical (only the planted words
carry signal). Writes one CSV row per (overlap, seed, fold).
"""

import argparse
import csv
from fractions import Fraction

from favd.corpus import make_kfold
from favd.metrics import all_vulnerable_f2, f_beta
from favd.predictor import classify_corpus
from favd.ranking import MinScorePolicy
from favd.synth import SynthSpec, generate
from favd.tuner import SearchGrid, search_weights

OVERLAPS = (0.0, 0.25, 0.5, 0.75, 1.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default="diversity_study.csv")
    args = parser.parse_args()

    grid = SearchGrid(cutoff_step=5)
    policy = MinScorePolicy.at_least(0)
    rows = []
    print(f"{'overlap':>8} {'mean F2':>9} {'baseline':>9}")
    for overlap in OVERLAPS:
        f2_sum, base_sum, folds = Fraction(0), Fraction(0), 0
        for seed in range(args.seeds):
            spec = SynthSpec(
                seed=seed,
                n_vulnerable=25,
                n_benign=50,
                planted_dangerous=frozenset({"alpha", "omega"}),
                vocab_size=24,
                terms_per_name=(2, 3),
                signal_strength=0.6,
                vocab_overlap=overlap,
            )
            corpus, _ = generate(spec)
            for i, (train, test) in enumerate(make_kfold(corpus, 2, seed=seed).folds):
                result = search_weights(train, policy, grid)
                counts = classify_corpus(test, result.model)
                f2 = f_beta(counts, 2)
                base = all_vulnerable_f2(len(test.vulnerable), len(test.benign))
                rows.append([overlap, seed, i + 1, f"{float(f2):.6f}", f"{float(base):.6f}"])
                f2_sum += f2
                base_sum += base
                folds += 1
        print(f"{overlap:>8.2f} {float(f2_sum / folds):>9.3f} {float(base_sum / folds):>9.3f}")

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vocab_overlap", "seed", "fold", "f2", "all_vulnerable_f2"])
        writer.writerows(rows)
    print(f"per-fold rows written to {args.out}")


if __name__ == "__main__":
    main()
