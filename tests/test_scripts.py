"""Runs of the experiment scripts: each exits 0 and writes its table header.

The weight sweep's rows are also checked against the library.
"""

import os
import subprocess
import sys
from pathlib import Path

from favd.corpus import clean, load_lists, make_kfold
from favd.metrics import f_beta
from favd.predictor import classify_corpus
from favd.ranking import MinScorePolicy, Weight
from favd.synth import SynthSpec, generate, write_corpus
from favd.tuner import SearchGrid, search_weights

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _run(script: str, *args, cwd: Path) -> str:
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_baselines(tmp_path):
    out = _run("reproduce_baselines.py", cwd=tmp_path).splitlines()
    assert out[0].split()[:3] == ["dataset", "vuln", "benign"]
    assert [line.split()[0] for line in out[1:]] == [
        "Asterisk", "FFmpeg", "LibPNG", "LibTIFF", "Pidgin", "VLC", "loo", "VDISC"]


def test_diversity_study(tmp_path):
    _run("diversity_study.py", "--seeds", 1, "--out", tmp_path / "d.csv", cwd=tmp_path)
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert lines[0] == "vocab_overlap,seed,fold,f2,all_vulnerable_f2"
    assert len(lines) == 1 + 5 * 2  # five overlaps, one seed, two folds


def test_weight_sweep(tmp_path):
    # A noisy corpus, on which the two weights and the two policies all differ.
    spec = SynthSpec(seed=4, n_vulnerable=12, n_benign=30, planted_dangerous=frozenset({"alpha"}),
                     vocab_size=20, signal_strength=0.5, vocab_overlap=0.6)
    vuln, benign = write_corpus(generate(spec)[0], tmp_path)
    _run("weight_sweep.py", "--vuln", vuln, "--benign", benign, "--kfold", 2,
         "--weights", "1-1,5-1", "--cutoff-step", 2, "--out", tmp_path / "w.csv", cwd=tmp_path)
    lines = (tmp_path / "w.csv").read_text().splitlines()
    assert lines[0] == "weight,f2_min_zero,f2_all"
    # Each row is the mean held-out F2 of that one weight, tuned per training fold.
    corpus = clean(*load_lists(vuln, benign))
    expected = ["weight,f2_min_zero,f2_all"]
    for weight in (Weight(1, 1), Weight(5, 1)):
        grid = SearchGrid(cutoff_step=2, weights=(weight,))
        row = [weight.tag()]
        for policy in (MinScorePolicy.at_least(0), MinScorePolicy.all_terms()):
            f2s = [f_beta(classify_corpus(test, search_weights(train, policy, grid).model), 2)
                   for train, test in make_kfold(corpus, 2, 0).folds]
            row.append(f"{float(sum(f2s) / len(f2s)):.6f}")
        expected.append(",".join(row))
    assert lines == expected
