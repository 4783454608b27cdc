"""Command-line surface: split, train, eval, predict, roc, baseline, harvest, synth.

Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible protocol.
All reports embed the tool version, the effective configuration, and SHA-256
digests of the inputs; given identical inputs and flags the written files are
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from . import __version__
from .corpus import (
    LabeledCorpus,
    clean,
    corpus_stats,
    load_csv,
    load_lists,
    make_kfold,
    make_leave_one_out,
)
from .errors import DataError, FavdError, InfeasibleError
from .harvest import harvest
from .metrics import (
    all_vulnerable_f2,
    f_beta,
    precision,
    recall,
    random_baseline_f2,
    roc,
)
from .model_io import model_document, load_model, save_model, sha256_file
from .predictor import classify, classify_corpus
from .ranking import (
    MinScorePolicy,
    Weight,
    default_weight_grid,
    load_external_scores,
    rank,
    score_frequency,
    write_word_list_csv,
)
from .rational import format_rate
from .splitter import split
from .synth import generate, spec_from_dict, write_corpus
from .tuner import SearchGrid, find_best, search_weights, threshold_values


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_json(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(out: str | Path | None, header: list[str], rows) -> None:
    """Write a CSV to stdout for None or '-', else to the file (parent dirs created)."""
    if out in (None, "-"):
        target = contextlib.nullcontext(sys.stdout)
    else:
        path = Path(out)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            target = path.open("w", newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from exc
    with target as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_weights(text: str | None):
    if not text:
        return default_weight_grid()
    if not isinstance(text, str):
        raise DataError(
            f'weights must be a string of PLUS-MINUS pairs such as "1-1,2-1", got {text!r}'
        )
    return tuple(Weight.parse(part) for part in text.split(",") if part.strip())


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise DataError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"malformed config file {p}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"config file {p} must hold a JSON object")
    return doc


def _resolve(args, config: dict, key: str, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _resolve_str(args, config: dict, key: str) -> str | None:
    """A path or label from the flags or the config file; None when absent."""
    value = _resolve(args, config, key, None)
    if value is not None and not isinstance(value, str):
        raise DataError(f"{key} must be a string, got {value!r}")
    return value


def _digest(path) -> dict:
    return {"path": str(path), "sha256": sha256_file(path)}


def _load_pair(vuln, benign, label) -> tuple[LabeledCorpus, dict]:
    """Load and clean two list files; also return their input digests."""
    raw = load_lists(vuln, benign, source_label=label)
    return clean(raw), {"vulnerable": _digest(vuln), "benign": _digest(benign)}


def _corpus_inputs(args, config) -> tuple[LabeledCorpus, dict]:
    """Load and clean the corpus named by --csv or --vuln/--benign."""
    csv_path = _resolve_str(args, config, "csv")
    vuln = _resolve_str(args, config, "vuln")
    benign = _resolve_str(args, config, "benign")
    label = _resolve_str(args, config, "label")
    if csv_path:
        return clean(load_csv(csv_path, source_label=label)), {"csv": _digest(csv_path)}
    if vuln and benign:
        return _load_pair(vuln, benign, label)
    raise DataError("provide --csv FILE or both --vuln FILE and --benign FILE")


def _parse_step(value) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise DataError(f"cannot parse number {value!r}") from exc


def _parse_int(value, what: str, minimum: int | None = None) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{what} must be an integer, got {value!r}") from exc
    if minimum is not None and number < minimum:
        raise DataError(f"{what} must be >= {minimum}, got {number}")
    return number


def _grid_options(args, config) -> tuple[SearchGrid, MinScorePolicy, Fraction, dict]:
    policy = MinScorePolicy.parse(_resolve(args, config, "policy", "zero"))
    weights = _parse_weights(_resolve(args, config, "weights", None))
    cutoff_step = _parse_int(_resolve(args, config, "cutoff_step", 100), "cutoff step")
    threshold_step = _resolve(args, config, "threshold_step", "0.05")
    beta = _parse_step(_resolve(args, config, "beta", "2"))
    if beta <= 0:
        raise DataError(f"beta must be positive, got {beta}")
    try:
        thresholds = threshold_values(_parse_step(threshold_step))
        grid = SearchGrid(cutoff_step=cutoff_step, thresholds=thresholds, weights=weights)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    options = {
        "policy": policy.tag(),
        "weights": [w.tag() for w in weights],
        "cutoff_step": cutoff_step,
        "threshold_step": str(threshold_step),
        "beta": float(beta),
        # The search is always exhaustive; the key keeps reports comparable.
        "mode": "exhaustive",
    }
    return grid, policy, beta, options


def _fold_metrics(counts, beta) -> dict:
    return {
        "tp": counts.tp,
        "fp": counts.fp,
        "fn": counts.fn,
        "tn": counts.tn,
        "precision": format_rate(precision(counts)),
        "recall": format_rate(recall(counts)),
        "f1": format_rate(f_beta(counts, 1)),
        "f2": format_rate(f_beta(counts, 2)),
        "f_beta": format_rate(f_beta(counts, beta)),
    }


def _trace_rows(traces):
    for weight, cells in traces:
        tag = weight.tag() if weight else ""
        # Keyed by id, as hashing a Fraction is slow: the cells share the
        # grid's threshold objects, which all live as long as `cells` does.
        labels: dict[int, str] = {}
        for cell in cells or ():
            label = labels.get(id(cell.threshold))
            if label is None:
                label = labels[id(cell.threshold)] = str(float(cell.threshold))
            # Int true division rounds correctly, as float(Fraction) does.
            yield [tag, cell.cutoff, label, cell.tp, cell.fp, cell.fn, cell.tn,
                   f"{cell.num / cell.den:.6f}"]


def _tune(train, external_table, policy, grid, beta, traces: list | None = None):
    """One search over an external table's ranking, else the weight sweep."""
    if external_table is None:
        return search_weights(train, policy, grid, beta=beta, trace_collector=traces)
    result = find_best(rank(external_table, policy), train, grid, beta=beta,
                       want_trace=traces is not None)
    if traces is not None:
        traces.append((None, result.grid_trace))
    return result


def cmd_split(args, config) -> int:
    for term in split(args.name, fold_case=bool(args.fold_case)):
        print(term)
    return 0


def cmd_train(args, config) -> int:
    corpus, digests = _corpus_inputs(args, config)
    grid, policy, beta, options = _grid_options(args, config)
    scores_path = _resolve_str(args, config, "scores")
    external_table = load_external_scores(scores_path) if scores_path else None
    traces: list | None = [] if args.trace else None
    result = _tune(corpus, external_table, policy, grid, beta, traces)
    if scores_path:
        digests["scores"] = _digest(scores_path)
    options["scorer"] = "external" if scores_path else "frequency"
    warnings = []
    if len(result.model.dangerous) == 0:
        warnings.append("vocabulary starvation: dangerous word list is empty; model predicts benign for everything")
    doc = model_document(result.model, result.train_f2, inputs=digests, config=options,
                         warnings=warnings)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(doc, out)
    if args.words_csv:
        words_path = Path(args.words_csv)
        words_path.parent.mkdir(parents=True, exist_ok=True)
        write_word_list_csv(result.model.dangerous, words_path)
    if args.trace:
        _write_csv(args.trace, ["weight", "cutoff", "threshold", "tp", "fp", "fn", "tn", "f2"],
                   _trace_rows(traces))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"model written to {out} (train F2 {format_rate(result.train_f2)}, "
          f"{len(result.model.dangerous)} dangerous words, cutoff {result.model.cutoff}, "
          f"threshold {float(result.model.threshold)})")
    return 0


def _eval_fold(fold_id, train, test, policy, grid, beta, external_table):
    result = _tune(train, external_table, policy, grid, beta)
    model = result.model
    counts = classify_corpus(test, model)
    v, b = len(test.vulnerable), len(test.benign)
    row = {
        "fold": fold_id,
        "train": {"vulnerable": len(train.vulnerable), "benign": len(train.benign)},
        "test": {"vulnerable": v, "benign": b},
        "model": {
            "weight": model.weight.tag() if model.weight else None,
            "source": model.source,
            "cutoff": model.cutoff,
            "threshold": float(model.threshold),
            "dangerous_count": len(model.dangerous),
            "train_f2": format_rate(result.train_f2),
        },
        "metrics": _fold_metrics(counts, beta),
        "baselines": {
            "all_vulnerable_f2": format_rate(all_vulnerable_f2(v, b)),
            "random_f2": format_rate(random_baseline_f2(Fraction(v, v + b))),
        },
    }
    exact = {
        "f2": f_beta(counts, 2),
        "f_beta": f_beta(counts, beta),
        "precision": precision(counts),
        "recall": recall(counts),
        "all_vulnerable_f2": all_vulnerable_f2(v, b),
        "random_f2": random_baseline_f2(Fraction(v, v + b)),
    }
    return row, exact


def cmd_eval(args, config) -> int:
    grid, policy, beta, options = _grid_options(args, config)
    loo_dirs = _resolve(args, config, "loo", None)
    if loo_dirs is not None and not (
        isinstance(loo_dirs, list) and all(isinstance(d, str) for d in loo_dirs)
    ):
        raise DataError(f"loo must be a list of directories, got {loo_dirs!r}")
    scores_path = _resolve_str(args, config, "scores")
    external_table = load_external_scores(scores_path) if scores_path else None
    options["scorer"] = "external" if external_table is not None else "frequency"
    if loo_dirs:
        corpora = []
        digests = {}
        for d in map(Path, loo_dirs):
            corpus, digests[d.name] = _load_pair(d / "vulnerable.txt", d / "benign.txt", d.name)
            corpora.append(corpus)
        plan = make_leave_one_out(corpora)
        del corpora, corpus
        fold_ids = [test.source_label for _, test in plan.folds]
        protocol = {"kind": "leave_one_out", "projects": fold_ids}
    else:
        corpus, digests = _corpus_inputs(args, config)
        k = _parse_int(_resolve(args, config, "kfold", 5), "kfold")
        seed = _parse_int(_resolve(args, config, "seed", 0), "seed")
        plan = make_kfold(corpus, k, seed)
        protocol = {"kind": "kfold", "k": k, "seed": seed}
        fold_ids = [f"{i + 1}/{k}" for i in range(k)]

    # The plan's folds hold the only references to the fold corpora; take
    # each out as it is run, so its corpora and encodings are freed before
    # the next fold is encoded.
    pending = list(zip(fold_ids, plan.folds))
    del plan
    folds = []
    sums: dict[str, Fraction] = {}
    while pending:
        fold_id, (train, test) = pending.pop(0)
        row, exact = _eval_fold(fold_id, train, test, policy, grid, beta, external_table)
        folds.append(row)
        for key, value in exact.items():
            sums[key] = sums.get(key, Fraction(0)) + value
    n = len(folds)
    means = {key: format_rate(total / n) for key, total in sums.items()}
    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "config": options,
        "inputs": digests,
        "protocol": protocol,
        "folds": folds,
        "means": means,
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(report, out_dir / "eval_report.json")
    _write_csv(out_dir / "folds.csv", [
        "fold", "train_vuln", "train_benign", "test_vuln", "test_benign",
        "weight", "cutoff", "threshold", "tp", "fp", "fn", "tn",
        "precision", "recall", "f1", "f2", "all_vulnerable_f2", "random_f2",
    ], ([
        row["fold"],
        row["train"]["vulnerable"], row["train"]["benign"],
        row["test"]["vulnerable"], row["test"]["benign"],
        row["model"]["weight"] or row["model"]["source"] or "",
        row["model"]["cutoff"], row["model"]["threshold"],
        row["metrics"]["tp"], row["metrics"]["fp"],
        row["metrics"]["fn"], row["metrics"]["tn"],
        row["metrics"]["precision"], row["metrics"]["recall"],
        row["metrics"]["f1"], row["metrics"]["f2"],
        row["baselines"]["all_vulnerable_f2"], row["baselines"]["random_f2"],
    ] for row in folds))
    print(f"evaluated {n} folds; mean F2 {means['f2']} "
          f"(all-vulnerable {means['all_vulnerable_f2']}, random {means['random_f2']}); "
          f"reports in {out_dir}")
    return 0


def _read_names(path: Path) -> list[str]:
    if not path.exists():
        raise DataError(f"names file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"not valid UTF-8: {path} ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read names file {path}: {exc}") from exc
    lines = text.splitlines()
    if lines and lines[0].strip().lower().startswith("name,"):
        try:
            with path.open(newline="", encoding="utf-8") as fh:
                rows = csv.reader(fh)
                next(rows)
                return [row[0].strip() for row in rows if row and row[0].strip()]
        except csv.Error as exc:
            raise DataError(f"malformed CSV {path}: {exc}") from exc
    return [line.rstrip() for line in lines if line.rstrip()]


def cmd_predict(args, config) -> int:
    model = load_model(args.model)
    names = _read_names(Path(args.names))
    # Int true division rounds correctly, so k / t equals float(percentage).
    rows = (
        [name, label, f"{len(matched) / terms if terms else 0:.6f}", ";".join(sorted(matched))]
        for name, label, matched, terms in map(classify, names, repeat(model))
    )
    _write_csv(args.out, ["name", "label", "percentage", "matched_terms"], rows)
    return 0


def cmd_roc(args, config) -> int:
    corpus, _digests = _corpus_inputs(args, config)
    grid, policy, _beta, _options = _grid_options(args, config)
    if args.model:
        dangerous = load_model(args.model).dangerous
    else:
        weight_text = _resolve(args, config, "weight", None)
        if not weight_text:
            raise DataError("provide --model FILE or --weight PLUS-MINUS")
        dangerous = rank(score_frequency(corpus, Weight.parse(weight_text)), policy)
    if len(dangerous) == 0:
        raise DataError("dangerous word list is empty; cannot sweep cutoffs")
    if args.cutoffs:
        cutoffs = [_parse_int(c, "cutoff", 1) for c in args.cutoffs.split(",") if c.strip()]
    else:
        cutoffs = grid.cutoff_values(len(dangerous))
    curves = roc(dangerous, cutoffs, corpus, thresholds=grid.thresholds,
                 include_zero_endpoint=bool(args.include_zero_endpoint))
    rows = (
        [curve.cutoff, str(float(point.threshold)), f"{float(point.tpr):.6f}",
         f"{float(point.fpr):.6f}"]
        for curve in curves
        for point in curve.points
    )
    _write_csv(args.out, ["cutoff", "threshold", "tpr", "fpr"], rows)
    return 0


def cmd_baseline(args, config) -> int:
    if args.counts:
        v, b = args.counts
        if v < 0 or b < 0 or v + b == 0:
            raise DataError("counts must be non-negative and not both zero")
        inputs = {}
    else:
        corpus, inputs = _corpus_inputs(args, config)
        v, b, _f = corpus_stats(corpus)
    fraction = Fraction(v, v + b)
    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "config": {"from_counts": bool(args.counts)},
        "inputs": inputs,
        "counts": {"vulnerable": v, "benign": b},
        "vulnerable_fraction": format_rate(fraction, 6),
        "all_vulnerable_f2": format_rate(all_vulnerable_f2(v, b)),
        "random_f2": format_rate(random_baseline_f2(fraction)),
    }
    if args.out:
        _write_json(report, Path(args.out))
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_harvest(args, config) -> int:
    names, warnings = harvest([Path(p) for p in args.paths])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_csv(args.out, ["name", "file", "line"],
               ([item.name, item.file, item.line] for item in names))
    return 0


def cmd_synth(args, config) -> int:
    spec_path = Path(args.spec)
    if not spec_path.exists():
        raise DataError(f"spec file not found: {spec_path}")
    try:
        doc = json.loads(spec_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"malformed spec file {spec_path}: {exc}") from exc
    spec = spec_from_dict(doc)
    corpus, planted = generate(spec)
    out_dir = Path(args.out)
    vpath, bpath = write_corpus(corpus, out_dir)
    truth = {
        "schema_version": 1,
        "tool_version": __version__,
        "spec": {
            "seed": spec.seed,
            "n_vulnerable": spec.n_vulnerable,
            "n_benign": spec.n_benign,
            "vocab_size": spec.vocab_size,
            "terms_per_name": list(spec.terms_per_name),
            "signal_strength": spec.signal_strength,
            "vocab_overlap": spec.vocab_overlap,
            "camel_case": spec.camel_case,
        },
        "planted_dangerous": sorted(planted),
        "counts": {"vulnerable": len(corpus.vulnerable), "benign": len(corpus.benign)},
    }
    _write_json(truth, out_dir / "ground_truth.json")
    print(f"wrote {vpath}, {bpath}, and ground_truth.json "
          f"({len(corpus.vulnerable)} vulnerable, {len(corpus.benign)} benign)")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="favd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"favd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_corpus_flags(p):
        p.add_argument("--vuln", help="vulnerable name list (one per line)")
        p.add_argument("--benign", help="benign name list (one per line)")
        p.add_argument("--csv", help="name,label CSV instead of two list files")
        p.add_argument("--label", help="corpus label for reports")

    def add_grid_flags(p):
        p.add_argument("--policy", help="min-score policy: none|zero|NUMBER (default zero)")
        p.add_argument("--weights", help="comma list of PLUS-MINUS pairs (default grid)")
        p.add_argument("--cutoff-step", dest="cutoff_step", type=int, help="cutoff grid step (default 100)")
        p.add_argument("--threshold-step", dest="threshold_step", help="threshold grid step (default 0.05)")
        p.add_argument("--beta", help="F-beta objective for tuning (default 2)")

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        p.set_defaults(func=func)
        return p

    p = sub.add_parser("split", help="print an identifier's terms, one per line")
    p.add_argument("name")
    p.add_argument("--fold-case", dest="fold_case", action="store_true", default=None)
    p.set_defaults(func=cmd_split)

    p = command("train", cmd_train, "tune a model on a labeled corpus and save it as JSON")
    add_corpus_flags(p)
    add_grid_flags(p)
    p.add_argument("--scores", help="external term,score CSV; replaces frequency scoring")
    p.add_argument("--trace", help="write the full weight/cutoff/threshold trace CSV here")
    p.add_argument("--words-csv", dest="words_csv",
                   help="also export the winning dangerous-word list as rank,term,score CSV")
    p.add_argument("--out", required=True, help="output model JSON path")

    p = command("eval", cmd_eval, "cross-validated evaluation with per-fold reports")
    add_corpus_flags(p)
    add_grid_flags(p)
    p.add_argument("--kfold", type=int, help="number of stratified folds (default 5)")
    p.add_argument("--seed", type=int, help="shuffle seed (default 0)")
    p.add_argument("--loo", nargs="+", metavar="DIR",
                   help="leave-one-out over project dirs holding vulnerable.txt/benign.txt")
    p.add_argument("--scores", help="external term,score CSV; replaces frequency scoring")
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = command("predict", cmd_predict, "classify names with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--names", required=True, help="plain list or harvest CSV")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("roc", cmd_roc, "TPR/FPR sweep over thresholds for one or more cutoffs")
    add_corpus_flags(p)
    p.add_argument("--model", help="use a saved model's dangerous word list")
    p.add_argument("--weight", help="PLUS-MINUS pair to rank the corpus itself")
    p.add_argument("--policy", help="min-score policy when ranking (default zero)")
    p.add_argument("--cutoffs", help="comma list of cutoffs (default: step grid)")
    p.add_argument("--cutoff-step", dest="cutoff_step", type=int)
    p.add_argument("--threshold-step", dest="threshold_step")
    p.add_argument("--include-zero-endpoint", dest="include_zero_endpoint",
                   action="store_true", default=None,
                   help="append the degenerate threshold-0 point (1,1)")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("baseline", cmd_baseline, "all-vulnerable and random baseline report")
    add_corpus_flags(p)
    p.add_argument("--counts", nargs=2, type=int, metavar=("VULN", "BENIGN"))
    p.add_argument("--out", help="also write the JSON report here")

    p = command("harvest", cmd_harvest, "extract function-definition names from C/C++ files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("synth", cmd_synth, "generate a synthetic corpus with planted ground truth")
    p.add_argument("--spec", required=True, help="synth spec JSON")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except DataError as exc:
        print(f"favd: data error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"favd: infeasible protocol: {exc}", file=sys.stderr)
        return 3
    except FavdError as exc:
        print(f"favd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
