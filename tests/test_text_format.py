"""Every text file favd reads is UTF-8, and a leading byte-order mark (BOM) is ignored.

Each test reads an input and a copy of it that starts with a BOM, as some
editors save UTF-8, and expects the same result from both.
"""

import codecs
import hashlib
import json

import pytest

from favd.cli import main

C_SOURCE = """\
int read_header(char *buf) { return parse_int(buf); }
void emit_record(struct rec *r) { write(r); }
"""
SPEC = {"seed": 9, "n_vulnerable": 8, "n_benign": 8, "planted_count": 2,
        "vocab_size": 12, "terms_per_name": [2, 2]}


def with_bom(path):
    """A copy of `path` beside it whose bytes start with the UTF-8 BOM."""
    copy = path.with_name("bom_" + path.name)
    copy.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    return copy


@pytest.fixture
def lists(tmp_path):
    # Each list's first name starts with a term that decides the ranking.
    vuln = tmp_path / "vulnerable.txt"
    benign = tmp_path / "benign.txt"
    vuln.write_text("read_file\nread_net\nparse_buf\nread_pkt\n")
    benign.write_text("draw_window\ndraw_frame\nlog_msg\nread_config_ui\n")
    return vuln, benign


def train(tmp_path, *argv) -> dict:
    out = tmp_path / "model.json"
    assert main(["train", *argv, "--cutoff-step", "1", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def tuned(doc: dict) -> dict:
    return {key: doc[key] for key in ("dangerous", "cutoff", "threshold", "train_f2")}


def test_list_files(tmp_path, lists):
    vuln, benign = lists
    plain = train(tmp_path, "--vuln", str(vuln), "--benign", str(benign))
    bom_vuln, bom_benign = with_bom(vuln), with_bom(benign)
    doc = train(tmp_path, "--vuln", str(bom_vuln), "--benign", str(bom_benign))
    assert tuned(doc) == tuned(plain)
    # The digests are of the bytes on disk, the BOM included.
    inputs = doc["provenance"]["inputs"]
    for key, path in (("vulnerable", bom_vuln), ("benign", bom_benign)):
        assert inputs[key]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_corpus_csv(tmp_path, lists):
    vuln, benign = lists
    csv_path = tmp_path / "corpus.csv"
    csv_path.write_text("name,label\n"
                        + "".join(f"{n},vulnerable\n" for n in vuln.read_text().split())
                        + "".join(f"{n},benign\n" for n in benign.read_text().split()))
    plain = train(tmp_path, "--csv", str(csv_path))
    assert tuned(train(tmp_path, "--csv", str(with_bom(csv_path)))) == tuned(plain)


@pytest.mark.parametrize("header", ["term,score\n", ""], ids=["header", "no-header"])
def test_score_csv(tmp_path, lists, header):
    vuln, benign = lists
    scores = tmp_path / "scores.csv"
    scores.write_text(header + "read,0.9\nparse,0.8\ndraw,0.1\n")
    corpus = ["--vuln", str(vuln), "--benign", str(benign)]
    plain = train(tmp_path, *corpus, "--scores", str(scores))
    assert tuned(train(tmp_path, *corpus, "--scores", str(with_bom(scores)))) == tuned(plain)


def test_config_file(tmp_path, lists):
    vuln, benign = lists
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"weights": "1-1,2-1", "policy": "none"}))
    corpus = ["--vuln", str(vuln), "--benign", str(benign)]
    plain = train(tmp_path, *corpus, "--config", str(config))
    assert train(tmp_path, *corpus, "--config", str(with_bom(config))) == plain


@pytest.mark.parametrize("names", ["list", "harvest-csv"])
def test_predict_names_and_model(tmp_path, lists, capsys, names):
    vuln, benign = lists
    train(tmp_path, "--vuln", str(vuln), "--benign", str(benign))
    model = tmp_path / "model.json"
    names_path = vuln
    if names == "harvest-csv":
        (tmp_path / "code.c").write_text(C_SOURCE)
        names_path = tmp_path / "names.csv"
        assert main(["harvest", str(tmp_path / "code.c"), "--out", str(names_path)]) == 0
    outputs = []
    for model_path, path in ((model, names_path), (with_bom(model), with_bom(names_path))):
        capsys.readouterr()
        assert main(["predict", "--model", str(model_path), "--names", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("name,label,percentage,matched_terms\nread_")


def test_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    written = []
    for path, out in ((spec, tmp_path / "plain"), (with_bom(spec), tmp_path / "bom")):
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 0
        written.append([p.read_bytes() for p in sorted(out.iterdir())])
    assert written[0] == written[1]
