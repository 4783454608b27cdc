"""Per-layer tracing of favd from outside the program.

`Tracer.install()` replaces each public function of `src/favd` in every
module that holds a binding to it, so calls through `from .splitter import
split` are caught as well as calls inside the defining module. Hot leaves
(`split`, `classify`, `f_beta`) keep only a call count and summed time; the
other functions also record a span (id, parent, name, start, end) in memory.
Self time is a function's time minus the time of the traced calls it made.

Run as a script, this file is the child the traced run starts for each
command: it calls `favd.cli.main(argv)` in its own fresh process, traced or
not, and writes the timing and the tracer's tallies to a JSON file:

    python3 bench/tracing.py RESULT.json 0|1 favd-argv...
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("splitter", "corpus", "ranking", "tuner", "predictor", "metrics", "harvest",
          "model_io", "cli")
TARGETS = {
    "splitter": ("split",),
    "corpus": ("load_lists", "load_csv", "clean", "make_kfold", "make_leave_one_out"),
    "ranking": ("score_frequency", "rank", "load_external_scores", "write_word_list_csv"),
    "tuner": ("search_weights", "find_best"),
    "predictor": ("classify", "classify_corpus"),
    "metrics": ("f_beta", "roc"),
    "harvest": ("harvest", "harvest_text", "strip_comments_and_literals"),
    "model_io": ("load_model", "save_model", "model_document"),
    "cli": ("main",),
}
HOT = frozenset({"splitter.split", "predictor.classify", "metrics.f_beta"})


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.via: Counter = Counter()
        self.extra: defaultdict = defaultdict(float)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[list] = []
        self._next_id = 0

    def install(self) -> None:
        """Wrap every target in every loaded favd module that binds it."""
        for layer in LAYERS:
            importlib.import_module(f"favd.{layer}")
        originals = {}
        for layer, names in TARGETS.items():
            module = sys.modules[f"favd.{layer}"]
            for name in names:
                originals[id(getattr(module, name))] = (f"{layer}.{name}", getattr(module, name))
        for modname, module in list(sys.modules.items()):
            if modname != "favd" and not modname.startswith("favd."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    qualname, fn = originals[id(value)]
                    setattr(module, attr, self._wrap(qualname, fn, modname.rsplit(".", 1)[-1]))

    def _wrap(self, name: str, fn, via: str):
        hot = name in HOT
        stack = self._stack
        count_via = name == "metrics.f_beta"
        measure_rss = name == "tuner.find_best"

        def traced(*args, **kwargs):
            span_id = None
            if not hot:
                self._next_id += 1
                span_id = self._next_id
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            rss0 = _max_rss_mb() if measure_rss else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                self.calls[name] += 1
                self.total[name] += dt
                self.self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if count_via:
                    self.via[f"{name}@{via}"] += 1
                if not hot:
                    self.spans.append((span_id, parent, name, t0, t1))
            if measure_rss:
                self.extra["rss_growth_mb"] += _max_rss_mb() - rss0
            elif name == "ranking.score_frequency":
                self.extra["vocab_terms"] = max(self.extra["vocab_terms"], len(result.scores))
            elif name == "harvest.harvest":
                self.extra["bytes"] += sum(os.path.getsize(p) for p in args[0])
                self.extra["names"] += len(result[0])
            return result

        return traced

    def tallies(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_s),
            "via": dict(self.via),
            "extra": dict(self.extra),
        }


def merge(tallies: list[dict]) -> dict:
    """Sum the tallies of several commands; `vocab_terms` keeps the maximum."""
    out: dict = {key: defaultdict(float) for key in ("calls", "total", "self", "via", "extra")}
    for one in tallies:
        for key, table in one.items():
            for name, value in table.items():
                if name == "vocab_terms":
                    out[key][name] = max(out[key][name], value)
                else:
                    out[key][name] += value
    return out


def layer_calls(tallies: dict) -> dict[str, int]:
    """Traced calls per layer (module of src/favd)."""
    per_layer = {layer: 0 for layer in LAYERS}
    for name, count in tallies["calls"].items():
        per_layer[name.split(".", 1)[0]] += int(count)
    return per_layer


UNITS = {
    "splitter.split.calls": "count", "splitter.split.calls_per_name": "ratio",
    "splitter.split.self_s": "s", "corpus.load_s": "s", "corpus.make_kfold_s": "s",
    "ranking.score_frequency.calls": "count", "ranking.score_frequency.self_s": "s",
    "ranking.rank.self_s": "s", "ranking.vocab_terms": "count", "tuner.search_weights.s": "s",
    "tuner.find_best.calls": "count", "tuner.find_best.self_s": "s", "tuner.cells": "count",
    "tuner.cells_per_s": "1/s", "tuner.find_best.rss_growth_mb": "MB",
    "predictor.classify.calls": "count", "predictor.classify.self_s": "s",
    "predictor.classify_corpus.s": "s", "metrics.f_beta.calls": "count",
    "metrics.f_beta.self_s": "s", "metrics.roc.calls": "count", "metrics.roc.self_s": "s",
    "harvest.strip_s": "s", "harvest.harvest_text.self_s": "s", "harvest.bytes": "bytes",
    "harvest.names": "count", "model_io.load_model.s": "s", "model_io.save_model.s": "s",
    "cli.self_s": "s", "cli.startup_s": "s", "trace.overhead_s": "s",
}
# Printed for reading the others, but no optimisation should move them.
CONTEXT = frozenset({"ranking.vocab_terms", "harvest.bytes", "harvest.names"})


def layer_metrics(t: dict, names_read: int, startup_s: float, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass over a workload's commands."""
    calls, total, self_s, extra = t["calls"], t["total"], t["self"], t["extra"]
    cells = int(t["via"]["metrics.f_beta@tuner"])
    find_best_s = total["tuner.find_best"]
    return {
        "splitter.split.calls": int(calls["splitter.split"]),
        "splitter.split.calls_per_name": calls["splitter.split"] / names_read,
        "splitter.split.self_s": self_s["splitter.split"],
        "corpus.load_s": total["corpus.load_lists"] + total["corpus.load_csv"] + total["corpus.clean"],
        "corpus.make_kfold_s": total["corpus.make_kfold"],
        "ranking.score_frequency.calls": int(calls["ranking.score_frequency"]),
        "ranking.score_frequency.self_s": self_s["ranking.score_frequency"],
        "ranking.rank.self_s": self_s["ranking.rank"],
        "ranking.vocab_terms": int(extra["vocab_terms"]),
        "tuner.search_weights.s": total["tuner.search_weights"],
        "tuner.find_best.calls": int(calls["tuner.find_best"]),
        "tuner.find_best.self_s": self_s["tuner.find_best"],
        "tuner.cells": cells,
        "tuner.cells_per_s": cells / find_best_s if find_best_s else 0.0,
        "tuner.find_best.rss_growth_mb": extra["rss_growth_mb"],
        "predictor.classify.calls": int(calls["predictor.classify"]),
        "predictor.classify.self_s": self_s["predictor.classify"],
        "predictor.classify_corpus.s": total["predictor.classify_corpus"],
        "metrics.f_beta.calls": int(calls["metrics.f_beta"]),
        "metrics.f_beta.self_s": self_s["metrics.f_beta"],
        "metrics.roc.calls": int(calls["metrics.roc"]),
        "metrics.roc.self_s": self_s["metrics.roc"],
        "harvest.strip_s": total["harvest.strip_comments_and_literals"],
        "harvest.harvest_text.self_s": self_s["harvest.harvest_text"],
        "harvest.bytes": int(extra["bytes"]),
        "harvest.names": int(extra["names"]),
        "model_io.load_model.s": total["model_io.load_model"],
        "model_io.save_model.s": total["model_io.save_model"],
        "cli.self_s": self_s["cli.main"],
        "cli.startup_s": startup_s,
        "trace.overhead_s": overhead_s,
    }


def _child(result_path: str, traced: str, argv: list[str]) -> int:
    import contextlib
    import io

    import favd.cli

    tracer = Tracer()
    if traced == "1":
        tracer.install()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = favd.cli.main(argv)
        main_s = time.perf_counter() - t0
    doc = {"rc": rc, "main_s": main_s, "tallies": tracer.tallies(), "spans": tracer.spans}
    Path(result_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2], sys.argv[3:]))
