"""The benchmark's workloads: seeded inputs, favd command lines, output checks.

Each workload writes its inputs under `ROOT/in` and runs its commands with
`ROOT` as the working directory and relative paths, because favd embeds
input paths in its reports and the pinned digests must not depend on where
the checkout lives.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from inputs import make_c_tree, make_corpus, sub_seed, write_names

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


@dataclass
class Command:
    kind: str
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], list[str]]
    names: int  # names the command reads; the denominator of the split waste ratio


def run_process(cmd: list[str], cwd: Path, log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion through launch.py.

    Returns its exit code, wall seconds, CPU seconds (user plus system) and
    peak RSS in MB. CPU and peak RSS come from the child's own rusage
    (wait4), not RUSAGE_CHILDREN, which is a high-water mark over every
    child reaped so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = cwd / "launch.json"
    result.unlink(missing_ok=True)
    with log.open("ab") as out:
        proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py"), str(result), *cmd],
                                cwd=cwd, env=env, stdout=out, stderr=out)
        try:
            rc = proc.wait()
        except BaseException:
            proc.terminate()
            proc.wait()
            raise
    if rc != 0:
        return rc, 0.0, 0.0, 0.0
    doc = json.loads(result.read_text(encoding="utf-8"))
    return doc["rc"], doc["wall_s"], doc["cpu_s"], doc["peak_rss_mb"]


def favd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "favd.cli", *argv]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_weights(text: str) -> list[tuple[int, int]]:
    return [tuple(map(int, w.split("-"))) for w in text.split(",")]


def corpus_args(directory: str) -> list[str]:
    return ["--vuln", f"{directory}/vulnerable.txt", "--benign", f"{directory}/benign.txt"]


class Workload:
    def __init__(self, spec: dict) -> None:
        self.shape = spec["shape"]
        self.exercises = spec["exercises"]
        self.pinned_inputs: list[str] = []  # favd outputs made during set-up

    def setup(self, seed: int, root: Path) -> list[str]:
        """Write the inputs for `seed` under root/in; return problems found."""
        raise NotImplementedError

    def commands(self) -> list[Command]:
        raise NotImplementedError


class CvLoo(Workload):
    def setup(self, seed, root):
        make_corpus(root / "in/loo", sub_seed(seed, "loo"), self.shape["loo"])
        self.vuln, self.benign = oracle.load_corpus(root / "in/loo/vulnerable.txt",
                                                    root / "in/loo/benign.txt")
        return []

    def commands(self):
        k = self.shape["kfold"]
        report = "out/eval/eval_report.json"
        return [Command(
            "eval",
            ["eval", *corpus_args("in/loo"), "--kfold", str(k), "--seed", "0", "--out-dir", "out/eval"],
            [report, "out/eval/folds.csv"],
            lambda root: oracle.check_eval(root / report, self.vuln, self.benign, k, 0),
            len(self.vuln) + len(self.benign),
        )]


class GridProjects(Workload):
    def setup(self, seed, root):
        self.seed = seed
        self.corpora = {}
        for project, shape in self.shape["projects"].items():
            make_corpus(root / "in" / project, sub_seed(seed, project), shape)
            self.corpora[project] = oracle.load_corpus(root / f"in/{project}/vulnerable.txt",
                                                       root / f"in/{project}/benign.txt")
        return []

    def commands(self):
        step, roc_step = str(self.shape["cutoff_step"]), str(self.shape["roc_cutoff_step"])
        weights = parse_weights(self.shape["weights"])
        out = []
        for project, (vuln, benign) in self.corpora.items():
            model, trace, roc = (f"out/{project}/{f}" for f in ("model.json", "trace.csv", "roc.csv"))
            names = len(vuln) + len(benign)

            def check_train(root, vuln=vuln, benign=benign, model=model, trace=trace):
                return (oracle.check_model(root / model, vuln, benign, weights, None,
                                           self.shape["cutoff_step"])
                        + oracle.check_trace(root / trace, root / model, len(vuln), len(benign)))

            def check_roc(root, vuln=vuln, benign=benign, model=model, roc=roc):
                return oracle.check_roc(root / roc, root / model, vuln, benign, self.seed, 3)

            out.append(Command(
                "train",
                ["train", *corpus_args(f"in/{project}"), "--policy", "none",
                 "--weights", self.shape["weights"], "--cutoff-step", step,
                 "--trace", trace, "--out", model],
                [model, trace], check_train, names,
            ))
            out.append(Command(
                "roc",
                ["roc", *corpus_args(f"in/{project}"), "--model", model,
                 "--cutoff-step", roc_step, "--out", roc],
                [roc], check_roc, names,
            ))
        return out


class VdiscTrain(Workload):
    def setup(self, seed, root):
        make_corpus(root / "in/vdisc", sub_seed(seed, "vdisc"), self.shape["vdisc"])
        self.vuln, self.benign = oracle.load_corpus(root / "in/vdisc/vulnerable.txt",
                                                    root / "in/vdisc/benign.txt")
        return []

    def commands(self):
        model = "out/model.json"
        return [Command(
            "train",
            ["train", *corpus_args("in/vdisc"), "--weights", self.shape["weights"],
             "--cutoff-step", str(self.shape["cutoff_step"]), "--out", model],
            [model],
            lambda root: oracle.check_model(root / model, self.vuln, self.benign,
                                            parse_weights(self.shape["weights"]), Fraction(0),
                                            self.shape["cutoff_step"]),
            len(self.vuln) + len(self.benign),
        )]


class Triage(Workload):
    model = "in/model.json"

    def setup(self, seed, root):
        self.seed = seed
        self.pinned_inputs = [self.model]
        make_corpus(root / "in/train", sub_seed(seed, "train"), self.shape["train"])
        vuln, benign = oracle.load_corpus(root / "in/train/vulnerable.txt",
                                          root / "in/train/benign.txt")
        argv = ["train", *corpus_args("in/train"), "--weights", self.shape["model_weights"],
                "--out", self.model]
        rc = run_process(favd(argv), root, root / "setup.log")[0]
        if rc != 0:
            return [f"set-up training exited {rc}; see {root / 'setup.log'}"]
        vocabulary = sorted({t for n in vuln | benign for t in oracle.terms_of(n)})
        self.names = write_names(root / "in/names.txt", sub_seed(seed, "names"), vocabulary,
                                 self.shape["names"])
        self.planted = make_c_tree(root, "in/tree", sub_seed(seed, "tree"), self.shape["tree"],
                                   vocabulary)
        self.files = sorted({f for f, _, _ in self.planted})
        self.tree_bytes = sum((root / f).stat().st_size for f in self.files)
        return oracle.check_model(root / self.model, vuln, benign,
                                  parse_weights(self.shape["model_weights"]), Fraction(0),
                                  oracle.DEFAULT_CUTOFF_STEP)

    def commands(self):
        sample = self.shape["check_sample"]
        harvested = [name for _, _, name in self.planted]

        def check_predict(out, names):
            return lambda root: oracle.check_predictions(root / out, root / self.model, names,
                                                         self.seed, sample)

        return [
            Command("harvest", ["harvest", *self.files, "--out", "out/harvest.csv"],
                    ["out/harvest.csv"],
                    lambda root: oracle.check_harvest(root / "out/harvest.csv", self.planted), 0),
            Command("predict", ["predict", "--model", self.model, "--names", "out/harvest.csv",
                                "--out", "out/pred_harvest.csv"],
                    ["out/pred_harvest.csv"], check_predict("out/pred_harvest.csv", harvested),
                    len(harvested)),
            Command("predict", ["predict", "--model", self.model, "--names", "in/names.txt",
                                "--out", "out/pred_names.csv"],
                    ["out/pred_names.csv"], check_predict("out/pred_names.csv", self.names),
                    len(self.names)),
        ]


WORKLOADS = {"cv-loo": CvLoo, "grid-projects": GridProjects, "vdisc-train": VdiscTrain,
             "triage": Triage}
