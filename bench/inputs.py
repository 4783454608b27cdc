"""Seeded benchmark inputs: labeled corpora, C source trees and name lists.

Everything here is a pure function of its seed, so one `--seed` always gives
byte-identical files. Corpora come from `favd.synth`; the C generator and
the name lists are the benchmark's own and draw their words from a given
vocabulary. The C generator returns the definitions it planted, which is
the ground truth the harvest check compares against.
"""

from __future__ import annotations

import random
from pathlib import Path


def sub_seed(seed: int, part: str) -> int:
    """Independent 32-bit seed for one part of a workload's inputs."""
    return random.Random(f"{seed}/{part}").getrandbits(32)


def make_corpus(out_dir: Path, seed: int, shape: dict) -> None:
    """Write vulnerable.txt and benign.txt for `shape` into `out_dir`."""
    # Imported on use, so that run.py can report a checkout without src/favd.
    from favd.synth import SynthSpec, generate, random_terms, write_corpus

    planted = random_terms(random.Random(seed ^ 0x5EED), shape["planted"])
    spec = SynthSpec(
        seed=seed,
        n_vulnerable=shape["vulnerable"],
        n_benign=shape["benign"],
        planted_dangerous=frozenset(planted),
        vocab_size=shape["vocab"],
        signal_strength=shape["signal"],
        vocab_overlap=shape["overlap"],
        camel_case=shape["case"] == "camel",
    )
    write_corpus(generate(spec)[0], out_dir)


def write_names(path: Path, seed: int, vocabulary: list[str], count: int) -> list[str]:
    """`count` names of 1 to 4 terms from `vocabulary`, snake_case or camelCase."""
    rng = random.Random(seed)
    names = []
    for _ in range(count):
        terms = rng.sample(vocabulary, rng.randint(1, 4))
        if rng.random() < 0.5:
            names.append("_".join(terms))
        else:
            names.append(terms[0] + "".join(t[:1].upper() + t[1:] for t in terms[1:]))
    path.write_text("".join(f"{n}\n" for n in names), encoding="utf-8")
    return names


# Decoys the harvester must not report: each holds an identifier followed by
# a parenthesis group, placed where the lexical rules reject it.
_DECOY_COMMENT = "/* {ret} {ghost}(void) {{ return 0; }} was removed */"
_DECOY_LINE_COMMENT = "// {ret} {ghost}(int x) {{"
_DECOY_PROTOTYPE = "{ret} {ghost}(int a, char *b);"
_DECOY_MACRO = "#define {upper}(a, b) ((a) > (b) ? (a) : (b))"
_DECOY_TABLE = "static const int {ghost}_table[] = {{ 1, 2, 3 }};"
_RETURN_TYPES = ("int", "void", "static int", "char *", "size_t", "static inline unsigned")


def _c_name(rng: random.Random, vocabulary: list[str]) -> str:
    terms = rng.sample(vocabulary, rng.randint(2, 4))
    if rng.random() < 0.5:
        return "_".join(terms)
    return terms[0] + "".join(t.capitalize() for t in terms[1:])


def _definition(rng: random.Random, name: str, ret: str, callee: str) -> tuple[list[str], int]:
    """Source lines of one definition and the index of the line naming it."""
    lines = []
    style = rng.randrange(3)
    if style == 0:
        lines.append(f"{ret} {name}(const char *buf, size_t len) {{")
        at = 0
    elif style == 1:
        lines += [f"{ret}", f"{name}(const char *buf,", "        size_t len)", "{"]
        at = 1
    else:
        lines += [f"{ret} {name}(const char *buf, size_t len)", "{"]
        at = 0
    lines += [
        "    int n = 0;",
        "    if (len > 0 && buf[0] == '(') {",
        f"        n = {callee}(buf, len);",
        "    }",
        f'    log_msg("{callee}(int a) {{ not code }}", \'{{\');',
        "    while (n > 8) { n /= 2; }",
        "    return n;",
        "}",
    ]
    return lines, at


def make_c_tree(
    base: Path, tree: str, seed: int, shape: dict, vocabulary: list[str]
) -> list[tuple[str, int, str]]:
    """Write C files `tree/dNN/fNNN.c` under `base`; return the planted (file, line, name).

    Identifiers are built from `vocabulary`. File names are relative to
    `base`, the directory `favd harvest` runs in, and the list is sorted the
    way harvest orders its output.
    """
    rng = random.Random(seed)
    planted: list[tuple[str, int, str]] = []
    per_file = shape["definitions"] // shape["files"]
    for f in range(shape["files"]):
        rel = f"{tree}/d{f % 8:02d}/f{f:03d}.c"
        path = base / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        out = ["#include <stdio.h>", "#include <string.h>", ""]
        out.append(_DECOY_MACRO.format(upper=_c_name(rng, vocabulary).upper()))
        for _ in range(per_file):
            ret = rng.choice(_RETURN_TYPES)
            ghost = _c_name(rng, vocabulary)
            decoy = rng.choice((_DECOY_COMMENT, _DECOY_LINE_COMMENT, _DECOY_PROTOTYPE, _DECOY_TABLE))
            out.append(decoy.format(ret=ret, ghost=ghost))
            name = _c_name(rng, vocabulary)
            body, at = _definition(rng, name, ret, _c_name(rng, vocabulary))
            planted.append((rel, len(out) + at + 1, name))
            out += body
            out.append("")
        path.write_text("\n".join(out) + "\n", encoding="utf-8")
    planted.sort()
    return planted
