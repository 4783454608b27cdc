"""Golden report bytes, checked across hash seeds.

Each CLI command runs in a fresh interpreter under a fixed PYTHONHASHSEED,
from relative paths inside a temporary directory, on a fixed synthetic
corpus (as two lists and as a CSV), three synthetic project directories, a
synth spec, two small C files and a name list. The SHA-256 digest of every
written file must equal its pin, so set iteration order cannot leak into
reports and refactors cannot change a byte of output. After a deliberate
output change, regenerate the pins with `python tests/test_golden.py DIR`,
which prints the digests of one run.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from favd.synth import SynthSpec, generate, write_corpus

SRC = Path(__file__).resolve().parents[1] / "src"
CORPUS = ["--vuln", "c/vulnerable.txt", "--benign", "c/benign.txt"]
COMMANDS = [
    ["eval", *CORPUS, "--kfold", "3", "--seed", "0", "--cutoff-step", "2",
     "--weights", "1-1,2-1,1-1000", "--out-dir", "ev"],
    ["train", *CORPUS, "--policy", "none", "--weights", "1-1,3-2", "--cutoff-step", "1",
     "--trace", "out/trace.csv", "--words-csv", "out/words.csv", "--out", "out/model.json"],
    ["train", *CORPUS, "--policy", "zero", "--cutoff-step", "1",
     "--trace", "out/grid_zero_trace.csv", "--out", "out/grid_zero.json"],
    ["train", *CORPUS, "--policy", "none", "--cutoff-step", "1",
     "--trace", "out/grid_none_trace.csv", "--out", "out/grid_none.json"],
    ["train", *CORPUS, "--scores", "scores.csv", "--policy", "1/2", "--cutoff-step", "1",
     "--threshold-step", "1/7", "--trace", "out/external_trace.csv",
     "--words-csv", "out/external_words.csv", "--out", "out/external.json"],
    ["eval", *CORPUS, "--scores", "scores.csv", "--kfold", "3", "--seed", "0",
     "--cutoff-step", "1", "--out-dir", "ev_external"],
    # 31 is the length of the 1-1 list: the last curve is the whole list's.
    ["roc", *CORPUS, "--weight", "1-1", "--policy", "none", "--cutoffs", "1,5,31",
     "--threshold-step", "1/7", "--include-zero-endpoint", "--out", "out/roc.csv"],
    ["harvest", "code/sample.c", "code/tail.c", "--out", "out/harvest.csv"],
    ["predict", "--model", "out/external.json", "--names", "names.txt",
     "--out", "out/pred_names.csv"],
    ["predict", "--model", "out/model.json", "--names", "out/harvest.csv",
     "--out", "out/pred_harvest.csv"],
    ["eval", "--loo", "p/alpha", "p/beta", "p/gamma", "--weights", "1-1,2-1,1-2",
     "--cutoff-step", "1", "--out-dir", "ev_loo"],
    ["train", "--csv", "c.csv", "--weights", "1-1,2-1", "--cutoff-step", "1",
     "--out", "out/csv_model.json"],
    ["baseline", "--csv", "c.csv", "--out", "out/baseline.json"],
    ["baseline", "--counts", "75", "522", "--out", "out/baseline_counts.json"],
    ["synth", "--spec", "spec.json", "--out", "syn"],
]
PINNED = {
    "ev/eval_report.json": "393e9d34540a22517517af6657c71b498aa38131cffd4c739109b003a63e4b00",
    "ev/folds.csv": "ba0a0634168071956dcabcd6de32f5966caf9aaff70d558f205f0fcaefd58518",
    "out/model.json": "272494673e1969a651a651e675d42c115cbdbfe3cd2d78af8b1b24d0ddae206b",
    "out/trace.csv": "f8aee50246446e99261d9e80e124b01a6b0c1732290864a9e96644d4c7ba7fa2",
    "out/words.csv": "7af9944a866f1bf78a9d8e97a768999f71032fb19a6365e6b9fc96ea252afc0c",
    "out/grid_zero_trace.csv": "ed29003ecc672de7fbc398e261341a236b922fec169f0061fc64a3cb49f07d26",
    "out/grid_zero.json": "c1ba14eb5d4ef8361adb5c71286ca8aac78f7d6ff6f2ed3ffb8eb289da7e2617",
    "out/grid_none_trace.csv": "82dd2ca89f99a68195157360edba9f6a532db57fb4178dac37ebe0c2eec235a8",
    "out/grid_none.json": "56700cccc55b372daca9df6cd2f7df9de4bf855fbc063a0252fae2d1d7121a54",
    "out/external.json": "5b61f736bf8567b756a750788647e5775d2070dff1912770670102b46c4532cb",
    "out/external_trace.csv": "7dabe200a4ed507875eacc8c401cac9f701d028a325aecce3f0a11817d003d36",
    "out/external_words.csv": "bdeba04ac2f5547763384efcae56096c38a05edd003607ef1a2316d802c618ac",
    "ev_external/eval_report.json": "ca7041148d1feb804c579a80fa856c7bcd169b97aa1298a89200cd0fb8c13229",
    "ev_external/folds.csv": "f417e7f447042f35e51988810d70746510dabff7eed7c23f2d4e50bd141a37e2",
    "out/roc.csv": "c1c48648fd21780e0fef8b2c3de33fe9667ce88c570d0a90b76971ca817a6352",
    "out/harvest.csv": "01dbba72b8d4e6dcc6c9a20aefe42f0ecb477d606269c0adc0c153bb7bde5e9d",
    "out/pred_names.csv": "83c11a05a7712133d98b128624cb0b729ddaa5764ca5fe4d2a6c858501094a9b",
    "out/pred_harvest.csv": "54e318bdfee6cd29fe95e4d90329e88a2ee5e5ea364dde1bbf0183e98ea3b08a",
    "ev_loo/eval_report.json": "751264be690b402f0c9b8f8cd2547192dda567843a6106ee05f44e05bd893d7c",
    "ev_loo/folds.csv": "301e7a3561215bb8adcbb3e20b159273cd6706794526191821f6d064fbb040b1",
    "out/csv_model.json": "8fb7416d292ec32c5e23bfa6f409225e631e635067d309be7b805c46f18f259e",
    "out/baseline.json": "efc9be76e9165129d72a60a7c22928d1df79e83db12be3d123639e94baba4848",
    "out/baseline_counts.json": "418b7973985f6a8dd6c9366cc9e5d18fa047d2fbe67d3f7cb95eed7c5d01deae",
    "syn/vulnerable.txt": "f3288d84348bf97770c877a666f69a369ba4f2589848635a583e9b7d02f7fc34",
    "syn/benign.txt": "907c9f0d983a1a804968b070ddca8a4dd52d6c011ae3700abd2987ba7826cb12",
    "syn/ground_truth.json": "106438d8e1e872339c944de27360c5e892b2ecf82dfb71539fc07620f2b1646a",
}

# The synth command's spec, and the specs of the three leave-one-out projects.
SPEC = {"seed": 5, "n_vulnerable": 9, "n_benign": 25, "planted_count": 2, "vocab_size": 16,
        "terms_per_name": [1, 3], "signal_strength": 0.8, "vocab_overlap": 0.25}
PROJECTS = {"alpha": 11, "beta": 12, "gamma": 13}

# Comments, literals, a prototype, a call site and a #define decoy; the
# second file ends inside an unterminated block comment.
C_SAMPLE = r"""#include <stdio.h>
#define ALPHA_BODY(x) { return (x); }
#define omega_max(a, b) ((a) > (b) ? (a) : (b))
/* int alpha_in_block(void) { return 1; } */
// int omega_in_line(void) { return 2; } \
   int omega_continued(void) { return 3; }
int alphaOmega(char *buf, int len);
static int alpha_omega_copy(const char *s, int (*cb)(int)) {
    char q = '\'', b = '\\';
    const char *t = "omega_fake(void) { \" }";
    return cb(alpha_parse(t)) + q + b;
}
void
omegaWrite2 (int n)
{
    alpha_parse("(");
}
int ___(void) { return 0; }
"""
C_TAIL = "int x86_alpha(void) { return '('; }\n/* int omega_never(void) { return 0; }\n"
# Underscore-only, digit-bearing and non-ASCII names, and a blank line.
NAMES = "alpha_omega\n___\nx86_64_alpha\nalpha2omega\n\nlecture_données\nⅰalpha_Ǆomega\nomega\n"


def make_inputs(root: Path) -> None:
    spec = SynthSpec(
        seed=7, n_vulnerable=12, n_benign=30, planted_dangerous=frozenset({"alpha", "omega"}),
        vocab_size=14, terms_per_name=(1, 3), signal_strength=0.7, vocab_overlap=0.5,
        camel_case=True,
    )
    corpus, _ = generate(spec)
    vuln, benign = write_corpus(corpus, root / "c")
    # Names made only of underscores have no terms.
    with vuln.open("a", encoding="utf-8") as fh:
        fh.write("___\n")
    with benign.open("a", encoding="utf-8") as fh:
        fh.write("__\n")
    code = root / "code"
    code.mkdir()
    (code / "sample.c").write_text(C_SAMPLE, encoding="utf-8")
    (code / "tail.c").write_text(C_TAIL, encoding="utf-8")
    (root / "names.txt").write_text(NAMES, encoding="utf-8")
    # The corpus again as a CSV, with one name on both sides and one repeated.
    rows = [f"{n},vulnerable" for n in vuln.read_text().split()]
    rows += [f"{n},benign" for n in benign.read_text().split()]
    rows += [rows[-1], rows[0].replace("vulnerable", "benign")]
    (root / "c.csv").write_text("name,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (root / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    # Three projects; one of alpha's vulnerable names is also benign in beta.
    for project, seed in PROJECTS.items():
        spec = SynthSpec(seed=seed, n_vulnerable=6, n_benign=15,
                         planted_dangerous=frozenset({"alpha", "omega"}), vocab_size=12,
                         terms_per_name=(1, 3), signal_strength=0.8, vocab_overlap=0.3)
        write_corpus(generate(spec)[0], root / "p" / project)
    moved = (root / "p/alpha/vulnerable.txt").read_text().split()[-1]
    with (root / "p/beta/benign.txt").open("a", encoding="utf-8") as fh:
        fh.write(moved + "\n")
    (root / "scores.csv").write_text(
        "term,score\nalpha,0.9\nomega,1/2\nabsentterm,1\nnowhere,0.75\n", encoding="utf-8"
    )


def run_commands(root: Path, hash_seed: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "favd.cli", *argv], cwd=root, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in PINNED}


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_reports_match_pinned_bytes(tmp_path, hash_seed):
    make_inputs(tmp_path)
    assert run_commands(tmp_path, hash_seed) == PINNED


if __name__ == "__main__":
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    make_inputs(out)
    for name, digest in run_commands(out, "0").items():
        print(f'    "{name}": "{digest}",')
