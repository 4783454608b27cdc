"""Command-line surface: split, train, eval, predict, roc, baseline, harvest, synth.

Exit codes: 0 success, 1 usage error, 2 data error, 3 infeasible protocol.
An option that both a flag and a --config file can set passes the same check
either way; a bad value exits 2.
All reports embed the tool version, the effective configuration, and SHA-256
digests of the inputs; given identical inputs and flags the written files are
byte-identical across runs.
"""
# The docstring is `favd --help`'s description. Each command imports the favd modules it runs,
# and no other: `harvest` loads only `errors` and `harvest`, `split` only `errors` and
# `splitter`, and `predict` neither `corpus`, `tuner` nor `metrics`. `predict` streams: it holds
# one block of its names file at a time, splits each name once, and hands its terms to
# `classify` only if they hold a deployed word (if none, the rule makes it benign at 0).
# Every output file is written whole or not at all (`errors.writing`).

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import DEFAULT_BETA, DEFAULT_CUTOFF_STEP, DEFAULT_THRESHOLD_STEP, __version__
from .errors import DataError, InfeasibleError, csv_rows, iter_lines, reading, write_csv, writing
# Every other favd module, and the SHA-256 module, json and fractions, is imported by the
# commands that use it, so that each command loads only what it runs.

if TYPE_CHECKING:
    from collections.abc import Callable, Iterator

    from .corpus import LabeledCorpus
    from .tuner import TuneResult


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class Option(NamedTuple):
    """A key that both a flag (`--cutoff-step` for cutoff_step) and a config file set.

    `check` names the function of `favd.checks` that checks the value.
    """

    check: str
    default: object
    help: str
    nargs: str | None = None
    metavar: str | None = None


OPTIONS = {
    "vuln": Option("path", None, "vulnerable name list (one per line)"),
    "benign": Option("path", None, "benign name list (one per line)"),
    "csv": Option("path", None, "name,label CSV instead of two list files"),
    "policy": Option("policy", "zero", "min-score policy: none|zero|NUMBER"),
    "weights": Option("weights", None, "comma list of PLUS-MINUS pairs (default: 38-weight grid)"),
    "cutoff_step": Option("flag_count", DEFAULT_CUTOFF_STEP, "cutoff grid step"),
    "threshold_step": Option("threshold_step", DEFAULT_THRESHOLD_STEP, "threshold grid step"),
    "beta": Option("beta", DEFAULT_BETA, "F-beta objective for tuning"),
    "scores": Option("path", None, "external term,score CSV; replaces frequency scoring"),
    "kfold": Option("flag_integer", 5, "number of stratified folds"),
    "seed": Option("flag_integer", 0, "shuffle seed"),
    "loo": Option("paths", None,
                  "leave-one-out over project dirs holding vulnerable.txt/benign.txt",
                  nargs="+", metavar="DIR"),
    "weight": Option("weight", None, "PLUS-MINUS pair to rank the corpus itself"),
}
CORPUS_KEYS = ("vuln", "benign", "csv")
GRID_KEYS = ("policy", "cutoff_step", "threshold_step")
TUNING_KEYS = CORPUS_KEYS + GRID_KEYS + ("weights", "beta", "scores")


def _options(args) -> dict:
    """Each of the command's options: the flag, else the config value, else the default, checked.

    A config key that no command reads is an error; one that another reads is ignored.
    """
    if not args.keys:
        return {}
    from . import checks
    from .model_io import load_json_object
    config = load_json_object(args.config, "config file") if args.config else {}
    unknown = sorted(config.keys() - OPTIONS.keys())
    if unknown:
        raise DataError(f"config file {args.config} sets unknown key(s) "
                        f"{', '.join(map(repr, unknown))}")
    values = {}
    for key in args.keys:
        value = getattr(args, key)
        if value is None:
            value = config.get(key, OPTIONS[key].default)
        values[key] = checks.checked(key, getattr(checks, OPTIONS[key].check), value)
    return values


def _digests(paths: dict) -> dict:
    """Each input file's path and SHA-256 digest, by key.

    The interpreter's builtin SHA-256 is used where it exists, as `random` does
    for SHA-512: `hashlib` loads OpenSSL, which costs every digesting command
    more peak memory and start-up time than hashing its inputs does.
    """
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    digests = {}
    for key, path in paths.items():
        digest = sha256()
        with reading(path, "input file") as fh:  # the bytes on disk, a byte-order mark included
            for block in iter(partial(fh.buffer.read, 1 << 16), b""):
                digest.update(block)
        digests[key] = {"path": str(path), "sha256": digest.hexdigest()}
    return digests


def _corpus(vuln=None, benign=None, csv=None) -> tuple[LabeledCorpus, dict]:
    """Load and clean a name,label CSV, else two list files; also return their paths by key."""
    from .checks import checked
    from .corpus import clean, load_csv, load_lists
    if csv:
        names, paths = load_csv(csv), {"csv": csv}
    elif vuln and benign:
        names, paths = load_lists(vuln, benign), {"vulnerable": vuln, "benign": benign}
    else:
        raise DataError("provide --csv FILE or both --vuln FILE and --benign FILE")
    corpus = checked(" and ".join(map(str, paths.values())), lambda lists: clean(*lists), names)
    return corpus, paths


def _search(opts: dict) -> tuple[Callable[..., TuneResult], dict, dict]:
    """train's and eval's tuner, and the config and inputs they record.

    `tune(train, trace=None)` sweeps the weights over the grid; with --scores it tunes
    the external table's ranking, which is ranked here, once for every fold. Pass
    `trace` by keyword.
    """
    from .metrics import threshold_values
    from .tuner import SearchGrid, find_best, search_weights
    grid = SearchGrid(opts["cutoff_step"], threshold_values(opts["threshold_step"]),
                      opts["weights"])
    if opts["scores"]:
        from .ranking import load_external_scores, rank
        dangerous = rank(load_external_scores(opts["scores"]), opts["policy"])
        tune = partial(find_best, dangerous, grid=grid, beta=opts["beta"])
        inputs = _digests({"scores": opts["scores"]})
    else:
        tune = partial(search_weights, policy=opts["policy"], grid=grid, beta=opts["beta"])
        inputs = {}
    config = {
        "policy": opts["policy"].tag(),
        "weights": [w.tag() for w in grid.weights],
        "cutoff_step": grid.cutoff_step,
        "threshold_step": opts["threshold_step"],
        "beta": float(opts["beta"]),
        # The search is always exhaustive; the key keeps reports comparable.
        "mode": "exhaustive",
        "scorer": "external" if opts["scores"] else "frequency",
    }
    return tune, config, inputs


def cmd_split(args, opts) -> int:
    from .splitter import split
    if not args.name:
        raise DataError("identifier must be non-empty")
    for term in split(args.name):
        print(term.lower() if args.fold_case else term)
    return 0


def cmd_train(args, opts) -> int:
    from .model_io import model_document, save_model
    from .ranking import write_word_list_csv
    from .rational import format_rate
    from .tuner import TRACE_HEADER, trace_text
    if (args.trace, args.words_csv).count("-") > 1:
        raise DataError("--trace - and --words-csv - cannot both write to standard output")
    train, paths = _corpus(opts["vuln"], opts["benign"], opts["csv"])
    train = train.encoded  # tuning reads only the encoding, so the name sets are freed here
    digests = _digests(paths)
    tune, config, inputs = _search(opts)
    trace: list | None = [] if args.trace else None
    result = tune(train, trace=trace)
    warnings = []
    if len(result.model.dangerous.words) == 0:
        warnings.append("vocabulary starvation: dangerous word list is empty; model predicts benign for everything")
    doc = model_document(result.model, result.train_f2, inputs=digests | inputs, config=config,
                         warnings=warnings)
    out = Path(args.out)
    save_model(doc, out)
    if args.words_csv:
        write_word_list_csv(result.model.dangerous, args.words_csv)
    if args.trace:
        write_csv(args.trace, TRACE_HEADER, text=trace_text(trace, opts["beta"]))
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    # A CSV on stdout keeps stdout to itself, so the status line goes to stderr.
    print(f"model written to {out} (train F2 {format_rate(result.train_f2)}, "
          f"{len(result.model.dangerous.words)} dangerous words, cutoff {result.model.cutoff}, "
          f"threshold {float(result.model.threshold)})",
          file=sys.stderr if "-" in (args.trace, args.words_csv) else sys.stdout)
    return 0


def _eval_fold(fold_id, fold, tune, beta):
    from fractions import Fraction

    from .metrics import all_vulnerable_f2, f_beta, precision, random_baseline_f2, recall
    from .predictor import classify_corpus
    from .rational import format_rate
    train, test = fold
    result = tune(train)
    model = result.model
    counts = classify_corpus(test, model)
    v, b = counts.tp + counts.fn, counts.fp + counts.tn
    # Exact values, averaged over the folds for the means; the row rounds them.
    exact = {
        "f2": f_beta(counts, 2),
        "f_beta": f_beta(counts, beta),
        "precision": precision(counts),
        "recall": recall(counts),
        "all_vulnerable_f2": all_vulnerable_f2(v, b),
        "random_f2": random_baseline_f2(Fraction(v, v + b)),
    }
    rate = {key: format_rate(value) for key, value in exact.items()}
    weight = model.dangerous.weight.tag() if model.dangerous.weight else None
    row = {
        "fold": fold_id,
        "train": {"vulnerable": train.n_vulnerable, "benign": train.n_benign},
        "test": {"vulnerable": v, "benign": b},
        "model": {
            "weight": weight,
            "source": model.dangerous.source,
            "cutoff": model.cutoff,
            "threshold": float(model.threshold),
            "dangerous_count": len(model.dangerous.words),
            "train_f2": format_rate(result.train_f2),
        },
        "metrics": {
            **counts._asdict(),  # tp, fp, fn, tn
            "precision": rate["precision"],
            "recall": rate["recall"],
            "f1": format_rate(f_beta(counts, 1)),
            "f2": rate["f2"],
            "f_beta": rate["f_beta"],
        },
        "baselines": {"all_vulnerable_f2": rate["all_vulnerable_f2"],
                      "random_f2": rate["random_f2"]},
    }
    # The fold's folds.csv row: its columns, in order, and the report values that fill them.
    line = {"fold": fold_id, "train_vuln": train.n_vulnerable, "train_benign": train.n_benign,
            "test_vuln": v, "test_benign": b, "weight": weight or model.dangerous.source or "",
            "cutoff": model.cutoff, "threshold": row["model"]["threshold"]}
    line.update((key, row["metrics"][key])
                for key in ("tp", "fp", "fn", "tn", "precision", "recall", "f1", "f2"))
    line.update(row["baselines"])
    return row, line, exact


def cmd_eval(args, opts) -> int:
    from .corpus import make_kfold, make_leave_one_out
    from .model_io import save_model
    from .rational import format_rate
    tune, config, inputs = _search(opts)
    if opts["loo"]:
        # Each directory's name is its fold id and its key in the digests; it is
        # read from the absolute path, so "." is named, and a symlink keeps its own name.
        dirs = [Path(d) for d in opts["loo"]]
        fold_ids = [Path(os.path.abspath(d)).name for d in dirs]
        if "" in fold_ids:
            raise DataError(f"leave-one-out directory {dirs[fold_ids.index('')]} has no name")
        keys = fold_ids + list(inputs)
        if len(set(keys)) != len(keys):
            raise DataError(f"leave-one-out directories need distinct names, none of them "
                            f"'scores' under --scores, got {fold_ids}")
        corpora, pairs = zip(*(_corpus(d / "vulnerable.txt", d / "benign.txt") for d in dirs))
        plan = make_leave_one_out(corpora)
        digests = dict(zip(fold_ids, map(_digests, pairs)))
        protocol = {"kind": "leave_one_out", "projects": fold_ids}
    else:
        corpus, paths = _corpus(opts["vuln"], opts["benign"], opts["csv"])
        digests = _digests(paths)
        k, seed = opts["kfold"], opts["seed"]
        plan = make_kfold(corpus, k, seed)
        del corpus  # the plan holds its names: chunked for the test sides, encoded for the rest
        protocol = {"kind": "kfold", "k": k, "seed": seed}
        fold_ids = [f"{i + 1}/{k}" for i in range(k)]

    # map hands each fold straight to _eval_fold and keeps no reference to
    # it, so a fold's train encoding and test corpus are freed before the next fold is built.
    run = partial(_eval_fold, tune=tune, beta=opts["beta"])
    folds, lines, exacts = zip(*map(run, fold_ids, plan.folds))
    n = len(folds)
    means = {key: format_rate(sum(e[key] for e in exacts) / n) for key in exacts[0]}
    report = {
        "schema_version": 1,
        "tool_version": __version__,
        "config": config,
        "inputs": digests | inputs,
        "protocol": protocol,
        "folds": folds,
        "means": means,
    }
    out_dir = Path(args.out_dir)
    # Both new texts are whole in their temporary files before either report is replaced.
    with writing(out_dir / "eval_report.json") as fh:
        save_model(report, fh)
        write_csv(out_dir / "folds.csv", list(lines[0]), (line.values() for line in lines))
    print(f"evaluated {n} folds; mean F2 {means['f2']} "
          f"(all-vulnerable {means['all_vulnerable_f2']}, random {means['random_f2']}); "
          f"reports in {out_dir}")
    return 0


def _read_names(path: Path) -> Iterator[str]:
    """Yield a plain name list's names, or the first column of a `name,...` CSV such as
    harvest's, reading the file as they are drawn."""
    with reading(path, "names file") as fh:
        first = fh.readline().splitlines()[:1]  # the text's first line, as splitlines ends it
    if not (first and first[0].strip().lower().startswith("name,")):
        return iter_lines(path)
    rows = csv_rows(path, "names file")
    next(rows)  # the header
    return (fields[0] for _, fields in rows)


def cmd_predict(args, opts) -> int:
    from .model_io import load_model
    from .predictor import BENIGN, classify
    from .splitter import split
    model = load_model(args.model)
    names = _read_names(Path(args.names))

    def rows():
        # A name none of whose terms is deployed matches nothing, so the rule
        # makes it benign at 0; only the others go through classify.
        nothing_deployed = model.top_terms.isdisjoint
        for name in names:
            if nothing_deployed(terms := split(name)):
                yield [name, BENIGN, "0.000000", ""]
            else:
                _, label, matched, unique = classify(name, model, terms)
                # Int true division rounds correctly, so k / t equals float(percentage).
                yield [name, label, f"{len(matched) / unique:.6f}", ";".join(sorted(matched))]

    write_csv(args.out, ["name", "label", "percentage", "matched_terms"], rows())
    return 0


def cmd_roc(args, opts) -> int:
    from .checks import checked, flag_count
    from .metrics import roc, threshold_values
    from .model_io import load_model
    from .ranking import rank, score_frequency
    from .tuner import SearchGrid
    # roc reports no inputs, so no digests
    corpus = _corpus(opts["vuln"], opts["benign"], opts["csv"])[0].encoded
    grid = SearchGrid(opts["cutoff_step"], threshold_values(opts["threshold_step"]))
    if args.model:
        dangerous = load_model(args.model).dangerous
    elif opts["weight"]:
        dangerous = rank(score_frequency(corpus, opts["weight"], opts["policy"]), opts["policy"])
    else:
        raise DataError("provide --model FILE or --weight PLUS-MINUS")
    size = len(dangerous.words)
    if size == 0:
        raise DataError("dangerous word list is empty; cannot sweep cutoffs")
    if args.cutoffs is not None:
        cutoffs = [checked("cutoffs", flag_count, c) for c in args.cutoffs.split(",") if c.strip()]
        if not cutoffs or len(set(cutoffs)) < len(cutoffs) or max(cutoffs) > size:
            raise DataError(f"cutoffs: must name distinct cutoffs of at most {size}, "
                            f"the dangerous list's length, got {args.cutoffs!r}")
    else:
        cutoffs = grid.cutoff_values(size)
    curves = roc(dangerous, cutoffs, corpus, thresholds=grid.thresholds,
                 include_zero_endpoint=bool(args.include_zero_endpoint))
    rows = (
        [curve.cutoff, str(float(point.threshold)), f"{float(point.tpr):.6f}",
         f"{float(point.fpr):.6f}"]
        for curve in curves
        for point in curve.points
    )
    write_csv(args.out, ["cutoff", "threshold", "tpr", "fpr"], rows)
    return 0


def cmd_baseline(args, opts) -> int:
    import json
    from fractions import Fraction

    from .checks import checked, flag_integer
    from .metrics import all_vulnerable_f2, random_baseline_f2
    from .model_io import save_model
    from .rational import format_rate
    if args.counts:
        v, b = (checked("counts", flag_integer, c) for c in args.counts)
        if v < 0 or b < 0 or v + b == 0:
            raise DataError("counts must be non-negative and not both zero")
        inputs = {}
    else:
        corpus, paths = _corpus(opts["vuln"], opts["benign"], opts["csv"])
        inputs = _digests(paths)
        v, b = len(corpus.vulnerable), len(corpus.benign)
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
        save_model(report, args.out)
    print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_harvest(args, opts) -> int:
    from .harvest import harvest
    names, warnings = harvest([Path(p) for p in args.paths])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_csv(args.out, ["name", "file", "line"], names)  # each is a (name, file, line) tuple
    return 0


def cmd_synth(args, opts) -> int:
    from .model_io import load_json_object, save_model
    from .synth import generate, spec_from_dict, write_corpus
    spec = spec_from_dict(load_json_object(args.spec, "spec file"))
    corpus, planted = generate(spec)
    out_dir = Path(args.out)
    vpath, bpath = write_corpus(corpus, out_dir)
    truth = {
        "schema_version": 1,
        "tool_version": __version__,
        "spec": {k: v for k, v in spec._asdict().items() if k != "planted_dangerous"},
        "planted_dangerous": sorted(planted),
        "counts": {"vulnerable": len(corpus.vulnerable), "benign": len(corpus.benign)},
    }
    save_model(truth, out_dir / "ground_truth.json")
    print(f"wrote {vpath}, {bpath}, and ground_truth.json "
          f"({len(corpus.vulnerable)} vulnerable, {len(corpus.benign)} benign)")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="favd", description=__doc__)
    parser.add_argument("--version", action="version", version=f"favd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, summary, keys=()):
        p = sub.add_parser(name, help=summary)
        if keys:
            p.add_argument("--config", help="JSON file of option defaults; flags win")
        for key in keys:
            opt = OPTIONS[key]
            default = "" if opt.default is None else f" (default {opt.default})"
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, nargs=opt.nargs,
                           metavar=opt.metavar, help=opt.help + default)
        p.set_defaults(func=func, keys=keys)
        return p

    p = command("split", cmd_split, "print an identifier's terms, one per line")
    p.add_argument("name")
    p.add_argument("--fold-case", dest="fold_case", action="store_true", default=None)

    p = command("train", cmd_train, "tune a model on a labeled corpus and save it as JSON",
                TUNING_KEYS)
    p.add_argument("--trace", help="write the full weight/cutoff/threshold trace CSV here")
    p.add_argument("--words-csv", dest="words_csv",
                   help="also export the winning dangerous-word list as rank,term,score CSV")
    p.add_argument("--out", required=True, help="output model JSON path")

    p = command("eval", cmd_eval, "cross-validated evaluation with per-fold reports",
                TUNING_KEYS + ("kfold", "seed", "loo"))
    p.add_argument("--out-dir", dest="out_dir", required=True)

    p = command("predict", cmd_predict, "classify names with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--names", required=True, help="plain list or harvest CSV")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("roc", cmd_roc, "TPR/FPR sweep over thresholds for one or more cutoffs",
                CORPUS_KEYS + GRID_KEYS + ("weight",))
    p.add_argument("--model", help="use a saved model's dangerous word list")
    p.add_argument("--cutoffs", help="comma list of cutoffs (default: step grid)")
    p.add_argument("--include-zero-endpoint", dest="include_zero_endpoint",
                   action="store_true", default=None,
                   help="append the degenerate threshold-0 point (1,1)")
    p.add_argument("--out", help="output CSV (default stdout)")

    p = command("baseline", cmd_baseline, "all-vulnerable and random baseline report",
                CORPUS_KEYS)
    p.add_argument("--counts", nargs=2, metavar=("VULN", "BENIGN"))
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
        code = args.func(args, _options(args))
        if sys.stdout is not None:  # None when favd starts with stdout closed
            sys.stdout.flush()
        return code
    except DataError as exc:
        print(f"favd: data error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"favd: infeasible protocol: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # Files are read and written in the guards, so stdout failed: drop what it buffers.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 0  # the reader stopped early, as `| head` does
        print(f"favd: data error: cannot write standard output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
