"""Independent checks of favd's outputs.

Nothing here imports favd: the splitter, the classification rule, the
frequency ranking, the k-fold split, the grid search and the F-scores are
written again from the README's definitions, so a defect in favd cannot
hide by being shared with its checker. Each check returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import json
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path


def terms_of(identifier: str) -> list[str]:
    """Split at underscores, lower->upper case changes and letter/digit changes."""
    out = []
    for chunk in identifier.split("_"):
        cuts = [0]
        for i in range(1, len(chunk)):
            a, b = chunk[i - 1], chunk[i]
            if (a.islower() and b.isupper()) or (a.isalpha() and b.isdigit()) or (
                a.isdigit() and b.isalpha()
            ):
                cuts.append(i)
        cuts.append(len(chunk))
        out += [chunk[s:e] for s, e in zip(cuts, cuts[1:]) if e > s]
    return out


def flagged(terms: set[str], top: set[str], threshold: Fraction) -> tuple[bool, Fraction]:
    """The rule |terms & top| / |terms| > threshold, with its percentage."""
    if not terms:
        return False, Fraction(0)
    share = Fraction(len(terms & top), len(terms))
    return share > threshold, share


def f_score(tp: int, fp: int, fn: int, beta: int = 2) -> Fraction:
    if tp == 0:
        return Fraction(0)
    b2 = beta * beta
    return Fraction((1 + b2) * tp, (1 + b2) * tp + b2 * fn + fp)


def read_lines(path: Path) -> list[str]:
    return [line.rstrip() for line in path.read_text(encoding="utf-8").splitlines() if line.rstrip()]


def load_corpus(vuln_path: Path, benign_path: Path) -> tuple[set[str], set[str]]:
    """The cleaned corpus: duplicates dropped, names on both lists kept vulnerable."""
    vulnerable = set(read_lines(vuln_path))
    return vulnerable, set(read_lines(benign_path)) - vulnerable


def read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _model_rule(model: dict) -> tuple[set[str], Fraction]:
    top = {row["term"] for row in model["dangerous"][: model["cutoff"]]}
    return top, Fraction(repr(model["threshold"]))


# The README's default search: a 38-weight grid, cutoffs 1, 1+step, ... up to
# the list length, and thresholds 1.00 down to 0.00 in steps of 0.05.
WEIGHT_GRID = tuple((p, m) for p in (1, 2, 3, 4, 5, 10) for m in (1, 2, 3, 4, 5, 10)) + (
    (1, 1000), (1000, 1))
THRESHOLDS = tuple(Fraction(k, 20) for k in range(20, -1, -1))
DEFAULT_CUTOFF_STEP = 100


@dataclass
class Cell:
    f2: Fraction
    weight: tuple[int, int]
    cutoff: int
    threshold: Fraction
    words: list[str]


def ranking(v_count: Counter, b_count: Counter, weight: tuple[int, int],
            floor: Fraction | None) -> list[str]:
    """Terms by plus*vuln - minus*benign count, highest first; `floor` None keeps all."""
    plus, minus = weight
    scores = {t: plus * v_count[t] - minus * b_count[t] for t in v_count.keys() | b_count.keys()}
    kept = [t for t, s in scores.items() if floor is None or s >= floor]
    return sorted(kept, key=lambda t: (-scores[t], -v_count[t], t))


def cutoff_grid(length: int, step: int) -> list[int]:
    values = list(range(1, length + 1, step))
    if values and values[-1] != length:
        values.append(length)
    return values


def _matched(term_sets: list[frozenset], position: dict[str, int], cuts: list[int]) -> dict:
    """(m, t) -> names per cutoff with t terms, m of them among the first cuts[j] words."""
    diff: dict = {}
    for terms in term_sets:
        ranks = sorted(position[t] for t in terms if t in position)
        # The m-th ranked term counts from the first cutoff that reaches it.
        starts = [bisect_left(cuts, r) for r in ranks] + [len(cuts)]
        for m in range(1, len(ranks) + 1):
            row = diff.setdefault((m, len(terms)), [0] * (len(cuts) + 1))
            row[starts[m - 1]] += 1
            row[starts[m]] -= 1
    return {key: list(accumulate(row)) for key, row in diff.items()}


def _flagged_count(hist: dict, j: int, threshold: Fraction) -> int:
    p, q = threshold.numerator, threshold.denominator
    return sum(row[j] for (m, t), row in hist.items() if m * q > p * t)


def tune(vuln_terms: list[frozenset], benign_terms: list[frozenset], weights, floor,
         step: int) -> Cell:
    """The first cell of best training F2, in order weight, cutoff up, threshold down."""
    v_count = Counter(t for terms in vuln_terms for t in terms)
    b_count = Counter(t for terms in benign_terms for t in terms)
    best = None
    for weight in weights:
        words = ranking(v_count, b_count, weight, floor)
        if not words:
            cells = [Cell(Fraction(0), weight, 0, Fraction(1), words)]
        else:
            position = {t: i + 1 for i, t in enumerate(words)}
            cuts = cutoff_grid(len(words), step)
            hv = _matched(vuln_terms, position, cuts)
            hb = _matched(benign_terms, position, cuts)
            cells = []
            for j, cutoff in enumerate(cuts):
                for threshold in THRESHOLDS:
                    tp, fp = _flagged_count(hv, j, threshold), _flagged_count(hb, j, threshold)
                    cells.append(Cell(f_score(tp, fp, len(vuln_terms) - tp), weight, cutoff,
                                      threshold, words))
        for cell in cells:
            if best is None or cell.f2 > best.f2:
                best = cell
    return best


def term_sets(names) -> list[frozenset]:
    return [frozenset(terms_of(n)) for n in sorted(names)]


def check_model(model_path: Path, vulnerable: set[str], benign: set[str], weights,
                floor: Fraction | None, step: int) -> list[str]:
    """The model is the best cell of an independent search; train_f2 is its F2."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    vuln_terms, benign_terms = term_sets(vulnerable), term_sets(benign)
    best = tune(vuln_terms, benign_terms, weights, floor, step)
    got = ((model["weight"]["plus"], model["weight"]["minus"]), model["cutoff"],
           Fraction(repr(model["threshold"])), [row["term"] for row in model["dangerous"]])
    problems = []
    if got != (best.weight, best.cutoff, best.threshold, best.words):
        problems.append(f"{model_path}: weight {got[0]}, cutoff {got[1]}, threshold {got[2]} and "
                        f"{len(got[3])} words, but an independent search picks {best.weight}, "
                        f"{best.cutoff}, {best.threshold} and {len(best.words)} words")
    top, threshold = _model_rule(model)
    tp = sum(flagged(terms, top, threshold)[0] for terms in vuln_terms)
    fp = sum(flagged(terms, top, threshold)[0] for terms in benign_terms)
    f2 = f_score(tp, fp, len(vuln_terms) - tp)
    if float(f2) != model["train_f2"] or f2 != best.f2:
        problems.append(f"{model_path}: train_f2 {model['train_f2']} but recomputed {float(f2)}, "
                        f"searched {float(best.f2)}")
    return problems


def check_predictions(
    pred_path: Path, model_path: Path, names: list[str], seed: int, sample: int
) -> list[str]:
    """Every input name appears in order; a seeded sample is relabeled independently."""
    rows = read_csv(pred_path)
    if rows[:1] != [["name", "label", "percentage", "matched_terms"]]:
        return [f"{pred_path}: bad header {rows[:1]}"]
    rows = rows[1:]
    if [r[0] for r in rows] != names:
        return [f"{pred_path}: {len(rows)} rows do not list the {len(names)} input names in order"]
    top, threshold = _model_rule(json.loads(model_path.read_text(encoding="utf-8")))
    problems = []
    for i in random.Random(seed).sample(range(len(rows)), min(sample, len(rows))):
        name, label, percentage, matched = rows[i]
        terms = set(terms_of(name))
        hit, share = flagged(terms, top, threshold)
        want = [name, "vulnerable" if hit else "benign", f"{float(share):.6f}",
                ";".join(sorted(terms & top))]
        if rows[i] != want:
            problems.append(f"{pred_path}: row {i + 2} is {rows[i]}, expected {want}")
    return problems


def check_roc(
    roc_path: Path, model_path: Path, vulnerable: set[str], benign: set[str], seed: int, sample: int
) -> list[str]:
    """A seeded sample of cutoffs is recomputed threshold by threshold."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    rows = read_csv(roc_path)[1:]
    by_cutoff: dict[int, list[list[str]]] = {}
    for row in rows:
        by_cutoff.setdefault(int(row[0]), []).append(row)
    problems = []
    words = [row["term"] for row in model["dangerous"]]
    split_v = [set(terms_of(n)) for n in vulnerable]
    split_b = [set(terms_of(n)) for n in benign]
    for cutoff in random.Random(seed).sample(sorted(by_cutoff), min(sample, len(by_cutoff))):
        top = set(words[:cutoff])
        for row in by_cutoff[cutoff]:
            threshold = Fraction(row[1])
            tp = sum(flagged(t, top, threshold)[0] for t in split_v)
            fp = sum(flagged(t, top, threshold)[0] for t in split_b)
            want = [row[0], row[1], f"{tp / len(split_v):.6f}", f"{fp / len(split_b):.6f}"]
            if row != want:
                problems.append(f"{roc_path}: row {row}, expected {want}")
    return problems


def check_trace(trace_path: Path, model_path: Path, n_vuln: int, n_benign: int) -> list[str]:
    """Every cell's counts add up and its F2 is right; the model holds the best cell."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    rows = read_csv(trace_path)
    if rows[:1] != [["weight", "cutoff", "threshold", "tp", "fp", "fn", "tn", "f2"]]:
        return [f"{trace_path}: bad header {rows[:1]}"]
    problems = []
    best = max(float(r[7]) for r in rows[1:])
    for row in rows[1:]:
        tp, fp, fn, tn = map(int, row[3:7])
        if tp + fn != n_vuln or fp + tn != n_benign or row[7] != f"{float(f_score(tp, fp, fn)):.6f}":
            problems.append(f"{trace_path}: inconsistent cell {row}")
            break
    if f"{model['train_f2']:.6f}" != f"{best:.6f}":
        problems.append(f"{trace_path}: best F2 {best} but the model reports {model['train_f2']}")
    return problems


def kfold(vulnerable: set[str], benign: set[str], k: int, seed: int) -> list[tuple[set, set]]:
    """Test parts of a stratified k-fold: each class sorted, shuffled, cut into k chunks."""
    rng = random.Random(seed)
    parts = []
    for names in (sorted(vulnerable), sorted(benign)):
        rng.shuffle(names)
        base, extra = divmod(len(names), k)
        bounds = list(accumulate([0] + [base + (i < extra) for i in range(k)]))
        parts.append([set(names[a:b]) for a, b in zip(bounds, bounds[1:])])
    return list(zip(*parts))


def check_eval(report_path: Path, vulnerable: set[str], benign: set[str], k: int,
               seed: int) -> list[str]:
    """Each fold's model is re-searched on its training part and re-scored on its test part.

    The search is the default one (38 weights, `zero` policy, cutoff step 100);
    every rounded rate and mean is recomputed from the confusion counts.
    """
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if len(report["folds"]) != k:
        return [f"{report_path}: {len(report['folds'])} folds, expected {k}"]
    problems = []
    sums: dict[str, Fraction] = {}
    for fold, (test_v, test_b) in zip(report["folds"], kfold(vulnerable, benign, k, seed)):
        label = f"{report_path}: fold {fold['fold']}"
        best = tune(term_sets(vulnerable - test_v), term_sets(benign - test_b), WEIGHT_GRID,
                    Fraction(0), DEFAULT_CUTOFF_STEP)
        want = {"weight": "-".join(map(str, best.weight)), "cutoff": best.cutoff,
                "threshold": float(best.threshold), "dangerous_count": len(best.words),
                "train_f2": round(float(best.f2), 3)}
        got = {key: fold["model"][key] for key in want}
        if got != want:
            problems.append(f"{label} model {got}, an independent search gives {want}")
        top = set(best.words[: best.cutoff])
        tp = sum(flagged(t, top, best.threshold)[0] for t in term_sets(test_v))
        fp = sum(flagged(t, top, best.threshold)[0] for t in term_sets(test_b))
        v, b = len(test_v), len(test_b)
        m = fold["metrics"]
        sizes = {"train": {"vulnerable": len(vulnerable) - v, "benign": len(benign) - b},
                 "test": {"vulnerable": v, "benign": b}}
        if {key: fold[key] for key in sizes} != sizes or (m["tp"], m["fp"], m["fn"], m["tn"]) != (
                tp, fp, v - tp, b - fp):
            problems.append(f"{label} sizes or counts differ from {sizes}, tp={tp}, fp={fp}")
        tp, fp, fn = m["tp"], m["fp"], m["fn"]
        exact = {
            "f2": f_score(tp, fp, fn),
            "precision": Fraction(tp, tp + fp) if tp else Fraction(0),
            "recall": Fraction(tp, tp + fn) if tp else Fraction(0),
            "all_vulnerable_f2": Fraction(5 * v, 5 * v + b),
            "random_f2": Fraction(5, 2) * Fraction(v, v + b) / (4 * Fraction(v, v + b) + Fraction(1, 2)),
        }
        reported = {**m, **fold["baselines"]}
        for key, value in exact.items():
            sums[key] = sums.get(key, Fraction(0)) + value
            if round(float(value), 3) != reported[key]:
                problems.append(f"{label} {key} {reported[key]} != {float(value)}")
    for key, total in sums.items():
        if round(float(total / k), 3) != report["means"][key]:
            problems.append(f"{report_path}: mean {key} is {report['means'][key]}")
    return problems


def check_harvest(csv_path: Path, planted: list[tuple[str, int, str]]) -> list[str]:
    """The harvested (name, file, line) rows are exactly the planted definitions."""
    rows = read_csv(csv_path)
    if rows[:1] != [["name", "file", "line"]]:
        return [f"{csv_path}: bad header {rows[:1]}"]
    got = [(f, int(line), name) for name, f, line in rows[1:]]
    if got != planted:
        missing = sorted(set(planted) - set(got))[:3]
        extra = sorted(set(got) - set(planted))[:3]
        return [f"{csv_path}: {len(got)} names for {len(planted)} planted; "
                f"missing {missing}, unexpected {extra}"]
    return []
