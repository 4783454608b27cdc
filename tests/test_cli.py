import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from favd.cli import main
from favd.model_io import load_model

C_SOURCE = """\
int read_header(char *buf) {
    return parse_int(buf);
}
// int ghost(void) { return 0; }
void emit_record(struct rec *r) { write(r); }
"""


@pytest.fixture
def corpus_files(tmp_path):
    vuln = tmp_path / "vulnerable.txt"
    benign = tmp_path / "benign.txt"
    vuln.write_text(
        "danger_read_file\ndanger_parse_net\ndanger_copy_buf\ndanger_recv_pkt\n"
    )
    benign.write_text(
        "log_msg_write\nopen_window_ui\nclose_window_ui\ndraw_frame_ui\n"
    )
    return vuln, benign


def test_split_prints_terms(capsys):
    assert main(["split", "png_push_read_chunk"]) == 0
    assert capsys.readouterr().out.splitlines() == ["png", "push", "read", "chunk"]


def test_split_fold_case(capsys):
    assert main(["split", "LZWDecode", "--fold-case"]) == 0
    assert capsys.readouterr().out.splitlines() == ["lzwdecode"]


def test_usage_error_exits_one():
    assert main(["split"]) in (1,)  # missing positional
    assert main(["no-such-command"]) == 1
    assert main(["split", "--config", "c.json", "read_file"]) == 1  # split reads no config


def test_train_predict_roundtrip(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    model_path = tmp_path / "model.json"
    rc = main([
        "train", "--vuln", str(vuln), "--benign", str(benign),
        "--cutoff-step", "1", "--out", str(model_path),
    ])
    assert rc == 0
    model = load_model(model_path)
    assert model.cutoff >= 1
    capsys.readouterr()

    names = tmp_path / "names.txt"
    names.write_text("danger_poll\nopen_socket\n")
    out_csv = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--names", str(names),
               "--out", str(out_csv)])
    assert rc == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "name,label,percentage,matched_terms"
    assert rows[1].startswith("danger_poll,vulnerable,0.5")
    assert rows[2].startswith("open_socket,benign,0.0")


def test_train_writes_provenance_and_config(tmp_path, corpus_files):
    vuln, benign = corpus_files
    model_path = tmp_path / "model.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "1", "--policy", "none", "--out", str(model_path)])
    doc = json.loads(model_path.read_text())
    assert doc["provenance"]["config"]["policy"] == "all"
    assert set(doc["provenance"]["inputs"]) == {"vulnerable", "benign"}
    assert doc["provenance"]["inputs"]["vulnerable"]["sha256"]


def test_train_trace_dump(tmp_path, corpus_files):
    vuln, benign = corpus_files
    trace = tmp_path / "trace.csv"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "2", "--weights", "1-1,3-2",
          "--out", str(tmp_path / "m.json"), "--trace", str(trace)])
    lines = trace.read_text().splitlines()
    assert lines[0] == "weight,cutoff,threshold,tp,fp,fn,tn,f2"
    weights_seen = {line.split(",")[0] for line in lines[1:]}
    assert weights_seen == {"1-1", "3-2"}


def test_eval_reports_are_deterministic(tmp_path, corpus_files):
    vuln, benign = corpus_files
    args = ["eval", "--vuln", str(vuln), "--benign", str(benign),
            "--kfold", "2", "--seed", "11", "--cutoff-step", "1"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("eval_report.json", "folds.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    report = json.loads((tmp_path / "a" / "eval_report.json").read_text())
    assert report["protocol"] == {"kind": "kfold", "k": 2, "seed": 11}
    assert len(report["folds"]) == 2
    for fold in report["folds"]:
        assert set(fold["baselines"]) == {"all_vulnerable_f2", "random_f2"}


def test_eval_loo_over_project_dirs(tmp_path):
    for name, vul, ben in [
        ("projA", "danger_read\ndanger_net\n", "log_write\nui_draw\n"),
        ("projB", "danger_copy\ndanger_recv\n", "ui_open\nui_close\n"),
        ("projC", "danger_mmap\ndanger_poll\n", "ui_blit\nui_flip\n"),
    ]:
        d = tmp_path / name
        d.mkdir()
        (d / "vulnerable.txt").write_text(vul)
        (d / "benign.txt").write_text(ben)
    out = tmp_path / "out"
    rc = main(["eval", "--loo", str(tmp_path / "projA"), str(tmp_path / "projB"),
               str(tmp_path / "projC"), "--cutoff-step", "1", "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["protocol"]["kind"] == "leave_one_out"
    assert [f["fold"] for f in report["folds"]] == ["projA", "projB", "projC"]


def test_eval_infeasible_folds_exit_three(tmp_path, corpus_files):
    vuln, benign = corpus_files
    rc = main(["eval", "--vuln", str(vuln), "--benign", str(benign),
               "--kfold", "9", "--out-dir", str(tmp_path / "x")])
    assert rc == 3


def test_missing_input_exits_two(tmp_path):
    rc = main(["train", "--vuln", str(tmp_path / "nope.txt"),
               "--benign", str(tmp_path / "nope2.txt"), "--out", str(tmp_path / "m.json")])
    assert rc == 2


def test_baseline_from_counts(capsys):
    assert main(["baseline", "--counts", "75", "522"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_vulnerable_f2"] == 0.418
    assert doc["counts"] == {"vulnerable": 75, "benign": 522}


def test_roc_csv_anchors(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    out = tmp_path / "roc.csv"
    rc = main(["roc", "--vuln", str(vuln), "--benign", str(benign),
               "--weight", "1-1", "--cutoffs", "2",
               "--include-zero-endpoint", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "cutoff,threshold,tpr,fpr"
    assert rows[1] == "2,1.0,0.000000,0.000000"
    assert rows[-1] == "2,0.0,1.000000,1.000000"


def test_harvest_then_predict(tmp_path, corpus_files, capsys):
    vuln, benign = corpus_files
    src = tmp_path / "code.c"
    src.write_text(C_SOURCE)
    harvest_csv = tmp_path / "harvest.csv"
    assert main(["harvest", str(src), "--out", str(harvest_csv)]) == 0
    rows = harvest_csv.read_text().splitlines()
    assert rows[0] == "name,file,line"
    assert [r.split(",")[0] for r in rows[1:]] == ["read_header", "emit_record"]

    model_path = tmp_path / "model.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "1", "--out", str(model_path)])
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path), "--names", str(harvest_csv)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "name,label,percentage,matched_terms"
    assert len(out) == 3


def test_train_starved_vocabulary_persists_model_with_warning(tmp_path, capsys):
    vuln = tmp_path / "v.txt"
    benign = tmp_path / "b.txt"
    vuln.write_text("")  # nothing vulnerable: every term scores negative
    benign.write_text("log_msg\nui_draw\nio_poll\n")
    model_path = tmp_path / "m.json"
    rc = main(["train", "--vuln", str(vuln), "--benign", str(benign),
               "--policy", "zero", "--weights", "1-1", "--out", str(model_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "vocabulary starvation" in captured.err
    doc = json.loads(model_path.read_text())
    assert doc["dangerous"] == []
    assert doc["cutoff"] == 0
    assert any("starvation" in w for w in doc["warnings"])


def test_roc_from_saved_model(tmp_path, corpus_files):
    vuln, benign = corpus_files
    model_path = tmp_path / "model.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--cutoff-step", "1", "--out", str(model_path)])
    out = tmp_path / "roc.csv"
    rc = main(["roc", "--vuln", str(vuln), "--benign", str(benign),
               "--model", str(model_path), "--cutoffs", "1,3", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    cutoffs_seen = {r.split(",")[0] for r in rows[1:]}
    assert cutoffs_seen == {"1", "3"}


def test_train_with_empty_benign_marks_every_term_dangerous(tmp_path):
    vuln = tmp_path / "v.txt"
    benign = tmp_path / "b.txt"
    vuln.write_text("alpha_read\nbeta_parse\n")
    benign.write_text("")
    model_path = tmp_path / "m.json"
    rc = main(["train", "--vuln", str(vuln), "--benign", str(benign),
               "--cutoff-step", "1", "--out", str(model_path)])
    assert rc == 0
    doc = json.loads(model_path.read_text())
    terms = {row["term"] for row in doc["dangerous"]}
    assert terms == {"alpha", "read", "beta", "parse"}
    assert all(row["score"] > 0 for row in doc["dangerous"])


def test_synth_command_writes_ground_truth(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "seed": 9, "n_vulnerable": 8, "n_benign": 8, "planted_count": 2,
        "vocab_size": 12, "terms_per_name": [2, 2],
    }))
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    truth = json.loads((out / "ground_truth.json").read_text())
    assert len(truth["planted_dangerous"]) == 2
    assert (out / "vulnerable.txt").exists() and (out / "benign.txt").exists()


def test_config_file_provides_defaults_flags_win(tmp_path, corpus_files):
    vuln, benign = corpus_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"policy": "none", "cutoff_step": 1, "weights": "1-1"}))
    model_a = tmp_path / "a.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--config", str(cfg), "--out", str(model_a)])
    doc_a = json.loads(model_a.read_text())
    assert doc_a["provenance"]["config"]["policy"] == "all"
    model_b = tmp_path / "b.json"
    main(["train", "--vuln", str(vuln), "--benign", str(benign),
          "--config", str(cfg), "--policy", "zero", "--out", str(model_b)])
    doc_b = json.loads(model_b.read_text())
    assert doc_b["provenance"]["config"]["policy"] == "at_least(0.0)"


def test_csv_corpus_input(tmp_path):
    corpus = tmp_path / "corpus.csv"
    corpus.write_text(
        "name,label\n"
        "danger_read,vulnerable\ndanger_net,vulnerable\n"
        "log_write,benign\nui_draw,benign\n"
    )
    model = tmp_path / "m.json"
    rc = main(["train", "--csv", str(corpus), "--cutoff-step", "1", "--out", str(model)])
    assert rc == 0
    doc = json.loads(model.read_text())
    assert "csv" in doc["provenance"]["inputs"]


_SRC = str(Path(__file__).resolve().parents[1] / "src")
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))

BAD_INPUTS = {
    "predict-names-not-utf8": ["predict", "--model", "m.json", "--names", "latin1.txt"],
    "train-scores-not-utf8": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--scores", "latin1.txt", "--out", "x.json"],
    "roc-cutoffs-text": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                         "--cutoffs", "x"],
    "roc-cutoffs-zero": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                         "--cutoffs", "0"],
    "roc-cutoffs-negative": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                             "--cutoffs", "-3"],
    "roc-cutoff-step-zero": ["roc", "--vuln", "v.txt", "--benign", "b.txt", "--weight", "1-1",
                             "--cutoff-step", "0"],
    "roc-threshold-step-zero": ["roc", "--vuln", "v.txt", "--benign", "b.txt",
                                "--weight", "1-1", "--threshold-step", "0"],
    "train-beta-zero": ["train", "--vuln", "v.txt", "--benign", "b.txt", "--beta", "0",
                        "--out", "x.json"],
    "config-cutoff-step-text": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                                "--config", "cutoff_step.json", "--out", "x.json"],
    "config-kfold-text": ["eval", "--vuln", "v.txt", "--benign", "b.txt",
                          "--config", "kfold.json", "--out-dir", "ev"],
    "config-seed-text": ["eval", "--vuln", "v.txt", "--benign", "b.txt",
                         "--config", "seed.json", "--out-dir", "ev"],
    "config-policy-number": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                             "--config", "policy.json", "--out", "x.json"],
    "config-weights-number": ["train", "--vuln", "v.txt", "--benign", "b.txt",
                              "--config", "weights.json", "--out", "x.json"],
    "predict-names-directory": ["predict", "--model", "m.json", "--names", "adir"],
    "predict-model-directory": ["predict", "--model", "adir", "--names", "v.txt"],
    "predict-out-directory": ["predict", "--model", "m.json", "--names", "v.txt",
                              "--out", "adir"],
    "harvest-out-directory": ["harvest", "code.c", "--out", "adir"],
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_a_data_error_without_traceback(tmp_path, corpus_files, argv):
    vuln, benign = corpus_files
    assert main(["train", "--vuln", str(vuln), "--benign", str(benign),
                 "--cutoff-step", "1", "--out", str(tmp_path / "m.json")]) == 0
    (tmp_path / "v.txt").write_text(vuln.read_text())
    (tmp_path / "b.txt").write_text(benign.read_text())
    (tmp_path / "latin1.txt").write_bytes("lecture_donn\xe9es,0.5\n".encode("latin-1"))
    (tmp_path / "cutoff_step.json").write_text(json.dumps({"cutoff_step": "a"}))
    (tmp_path / "kfold.json").write_text(json.dumps({"kfold": "x"}))
    (tmp_path / "seed.json").write_text(json.dumps({"seed": "x"}))
    (tmp_path / "policy.json").write_text(json.dumps({"policy": 5}))
    (tmp_path / "weights.json").write_text(json.dumps({"weights": 5}))
    (tmp_path / "code.c").write_text(C_SOURCE)
    (tmp_path / "adir").mkdir()
    proc = subprocess.run([sys.executable, "-m", "favd.cli", *argv], cwd=tmp_path, env=_ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("favd: data error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_read_only_commands_do_not_import_numpy(tmp_path, corpus_files):
    vuln, benign = corpus_files
    assert main(["train", "--vuln", str(vuln), "--benign", str(benign),
                 "--cutoff-step", "1", "--out", str(tmp_path / "m.json")]) == 0
    (tmp_path / "code.c").write_text(C_SOURCE)
    script = (
        "import sys\n"
        "from favd.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    for argv in (["harvest", "code.c", "--out", "h.csv"],
                 ["predict", "--model", "m.json", "--names", "h.csv", "--out", "p.csv"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=_ENV,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p.csv").read_text().count("\n") == 3
