"""The command line's surface: `favd --help`, each `favd CMD --help`, and one usage error each.

`surface()` runs each case through `favd.cli.main` in-process at a fixed
terminal width and returns its exit code and the text it wrote to stdout and
stderr. argparse words its help differently from one Python version to the
next, so `cli_surface.json` keeps one set of pins per version (3.10, 3.11
and 3.12). After a deliberate change to the surface, regenerate the running
version's pins with `PYTHONPATH=src python tests/cli_surface.py`, once with
each pinned interpreter.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

PINS = Path(__file__).with_name("cli_surface.json")
COLUMNS = "80"
COMMANDS = ("split", "train", "eval", "predict", "roc", "baseline", "harvest", "synth")
CASES = {
    "favd --help": ["--help"],
    "favd --version": ["--version"],
    "favd": [],
    "favd nope": ["nope"],
    **{f"favd {command} --help": [command, "--help"] for command in COMMANDS},
    # One usage error per command: a missing or malformed argument.
    "favd split": ["split"],
    "favd train": ["train"],
    "favd eval": ["eval"],
    "favd predict": ["predict", "--names", "n.txt"],
    "favd roc --cutoff-step": ["roc", "--cutoff-step"],
    "favd baseline --counts 1": ["baseline", "--counts", "1"],
    "favd harvest": ["harvest"],
    "favd synth --spec s.json": ["synth", "--spec", "s.json"],
}


def version() -> str:
    return "{}.{}".format(*sys.version_info)


def surface() -> dict[str, dict]:
    """Each case's exit code, stdout and stderr; the caller fixes COLUMNS."""
    from favd.cli import main
    result = {}
    for case, argv in CASES.items():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        result[case] = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return result


if __name__ == "__main__":
    os.environ["COLUMNS"] = COLUMNS
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[version()] = surface()
    PINS.write_text(json.dumps(dict(sorted(pins.items())), indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(CASES)} cases for Python {version()} in {PINS}")
