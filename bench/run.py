"""favd benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's inputs
from the seed several times (at least SETUP_MIN, and until SETUP_SECONDS
are used), reports the median and requires identical bytes each time. Then
the workload's favd commands run as one closed loop: one `python3 -m
favd.cli` subprocess at a time, started through launch.py so that its peak
RSS is its own, each starting when the previous one ends, repeated until S
seconds are used. Every output is checked: against pinned SHA-256 digests
for the default seed, against the first pass for later passes, and by the
independent checks in oracle.py.

Before each command, and once after the last, a fixed reference job (see
`reference`) runs in this process for REF_SHARE of the command's last wall
time. The gated `wall_per_ref` divides each command's wall time by the mean
time of one reference round before and after it, and sums over a pass, so
the drift in machine speed of a shared host largely cancels. Raw wall_s,
cpu_s and the per-command times are printed in the table.

With --trace 0 the last stdout line is the end-to-end result. With --trace 1
each command instead runs twice in a fresh child that calls favd.cli.main
in-process, once untraced and once under tracing.Tracer, and the last line
holds the per-layer metrics. A readable table precedes the JSON line either
way. Workload shapes and reasons are recorded in bench/workloads.json.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import random
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

import oracle
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# Per-command end-to-end metrics: the favd subcommand each one times.
COMMAND_METRICS = {"eval_s": "eval", "train_s": "train", "roc_s": "roc", "predict_s": "predict",
                   "harvest_s": "harvest"}
UNITS = {"wall_per_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
DEFAULT_SEED = 0  # the seed whose outputs golden.json pins
# Set-up repeats at least SETUP_MIN times and until SETUP_SECONDS are used, so
# that a set-up of a few milliseconds is still timed over seconds.
SETUP_MIN, SETUP_SECONDS = 3, 2
REF_SHARE = 0.3  # reference time next to a command, as a share of its wall time


def tail(samples: list[float]) -> str:
    """Median plus the highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} (n={n})"
    ordered = sorted(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return text + f", p{p:g} {ordered[rank - 1]:.4f}"
    return text + ", no tail percentile (needs 11+ samples)"


@functools.cache
def reference_inputs() -> tuple[list[str], numpy.ndarray]:
    rng = random.Random(0)
    words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(2, 7)))
             for _ in range(300)]
    names = []
    for _ in range(4000):
        terms = rng.sample(words, rng.randint(1, 4))
        names.append("_".join(terms) if rng.random() < 0.5
                     else terms[0] + "".join(t.capitalize() for t in terms[1:]))
    return names, numpy.arange(2_000_000, dtype=numpy.int64) % 97


def reference(seconds: float) -> float:
    """Seconds per round of a fixed job with the same mix of work as favd.

    A round splits and counts 4,000 names with the benchmark's own splitter
    (interpreter-bound, like favd's splitting and scoring), then compares a
    2M-element int64 array three times (memory-bound, like the tuner's
    matrix). It does not change when favd does. Rounds repeat for at least
    `seconds`, and at least twice.
    """
    names, matrix = reference_inputs()
    rounds, t0 = 0, time.perf_counter()
    while rounds < 2 or time.perf_counter() - t0 < seconds:
        counts = Counter()
        for name in names:
            counts.update(set(oracle.terms_of(name)))
        for q in (3, 7, 11):
            int((matrix * q > 500).sum())
        rounds += 1
    return (time.perf_counter() - t0) / rounds


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class OutputChecker:
    """Checks each command's outputs; repeats of a command must match its first run."""

    def __init__(self, workload: str, pins: dict | None, root: Path) -> None:
        self.root = root
        self.pins = pins.get(workload, {}) if pins is not None else None
        self.seen: dict[int, tuple[dict, list[str]]] = {}

    def digests(self, paths: list[str]) -> dict[str, str]:
        return {p: workloads.sha256(self.root / p) for p in paths}

    def check_pins(self, digests: dict[str, str]) -> list[str]:
        if self.pins is None:
            return []
        return [f"{p}: sha256 {d[:12]}... differs from the pinned {self.pins.get(p, 'none')[:12]}..."
                for p, d in digests.items() if self.pins.get(p) != d]

    def check(self, index: int, command) -> list[str]:
        missing = [p for p in command.outputs if not (self.root / p).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        digests = self.digests(command.outputs)
        if index not in self.seen:
            self.seen[index] = (digests, command.check(self.root) + self.check_pins(digests))
        first, problems = self.seen[index]
        if digests != first:
            return problems + ["outputs differ from the first run of this command"]
        return problems


def run_workload(args, spec: dict, pins: dict | None):
    wl = workloads.WORKLOADS[args.workload](spec["workloads"][args.workload])
    root = WORK / args.workload
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    log = root / "commands.log"

    setup_times, problems, digest = [], [], None
    while len(setup_times) < SETUP_MIN or sum(setup_times) < SETUP_SECONDS:
        shutil.rmtree(root / "in", ignore_errors=True)
        t0 = time.perf_counter()
        found = wl.setup(args.seed, root)
        setup_times.append(time.perf_counter() - t0)
        d = tree_digest(root / "in")
        if digest is not None and d != digest:
            found.append("set-up is not deterministic: inputs differ between repeats")
        digest = d
        problems += [p for p in found if p not in problems]
    checker = OutputChecker(args.workload, pins, root)
    if pins is not None:
        problems += checker.check_pins(checker.digests(wl.pinned_inputs))
    for p in problems:
        print(f"set-up check failed: {p}", file=sys.stderr)

    commands = wl.commands()
    passes, layers, spans = [], [], []
    attempted = failed = 0

    def record(index, command, rc, label):
        nonlocal attempted, failed
        attempted += 1
        found = [f"exit code {rc}; see {log}"] if rc != 0 else checker.check(index, command)
        if found:
            failed += 1
            for p in found:
                print(f"{label} {command.kind} failed: {p}", file=sys.stderr)

    last_wall: dict[int, float] = {}
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        runs, tallies, startup, overhead = [], [], 0.0, 0.0
        for index, command in enumerate(commands):
            if not args.trace:
                for p in command.outputs:
                    (root / p).unlink(missing_ok=True)
                ref = reference(REF_SHARE * last_wall.get(index, 1.0))
                rc, wall, cpu, rss = workloads.run_process(workloads.favd(command.argv), root, log)
                record(index, command, rc, "subprocess")
                # [kind, wall s, CPU s, peak RSS MB, reference s/round]; the loop's end
                # appends the command's wall time in reference rounds.
                runs.append([command.kind, wall, cpu, rss, ref])
                last_wall[index] = wall
                continue
            main_s = {}
            for traced in ("0", "1"):
                result = root / f"inproc-{traced}.json"
                for p in [result, *command.outputs]:
                    (root / p).unlink(missing_ok=True)
                child = [sys.executable, str(BENCH / "tracing.py"), str(result), traced, *command.argv]
                rc, child_wall, _, _ = workloads.run_process(child, root, log)
                doc = json.loads(result.read_text()) if rc == 0 else {"rc": rc, "main_s": 0.0}
                record(index, command, doc["rc"], f"in-process (traced={traced})")
                main_s[traced] = doc["main_s"]
                if traced == "0":
                    startup += child_wall - doc["main_s"]
                elif "tallies" in doc:
                    tallies.append(doc["tallies"])
                    spans.append({"pass": len(passes), "command": index, "spans": doc["spans"]})
            overhead += main_s["1"] - main_s["0"]
        passes.append((runs, time.perf_counter() - t_pass))
        if args.trace:
            merged = tracing.merge(tallies)
            names = sum(c.names for c in commands)
            layers.append((tracing.layer_calls(merged),
                           tracing.layer_metrics(merged, max(names, 1), startup, overhead)))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(t for _, t in passes) > args.seconds:
            break
    if args.trace:
        (root / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        # Each command's speed reference is the mean round time on both sides of it.
        flat = [run for runs, _ in passes for run in runs]
        after = [run[4] for run in flat[1:]] + [reference(REF_SHARE * flat[-1][1])]
        for run, ref_after in zip(flat, after):
            run.append(run[1] / ((run[4] + ref_after) / 2))
    return wl, setup_times, passes, layers, problems, attempted, failed


def end_to_end(wl, setup_times, passes, attempted, failed) -> tuple[dict, list[str]]:
    """Gated metrics for the JSON line, plus the readable table of every end-to-end metric."""
    walls = [sum(r[1] for r in runs) for runs, _ in passes]
    cpus = [sum(r[2] for r in runs) for runs, _ in passes]
    ratios = [sum(r[5] for r in runs) for runs, _ in passes]
    per_kind = {m: [sum(r[1] for r in runs if r[0] == kind) for runs, _ in passes]
                for m, kind in COMMAND_METRICS.items()}
    peak = max(r[3] for runs, _ in passes for r in runs)
    gated = {"wall_per_ref": statistics.median(ratios), "setup_s": statistics.median(setup_times),
             "peak_rss_mb": peak}
    lines = [f"  {'wall_s':<22} s      {tail(walls)}",
             f"  {'':<22}        per pass: " + " ".join(f"{w:.3f}" for w in walls),
             f"  {'wall_per_ref':<22} ratio  {tail(ratios)}",
             f"  {'':<22}        per pass: " + " ".join(f"{r:.2f}" for r in ratios),
             f"  {'':<22}        reference s/round per pass: " + " ".join(
                 f"{statistics.fmean(r[4] for r in runs):.5f}" for runs, _ in passes),
             f"  {'cpu_s':<22} s      {tail(cpus)}",
             f"  {'setup_s':<22} s      {tail(setup_times)}",
             f"  {'peak_rss_mb':<22} MB     {peak:.1f} (largest of {sum(len(r) for r, _ in passes)} commands)",
             f"  {'ops_failed':<22} frac   {failed / attempted:.4f} ({failed} of {attempted} commands)"]
    for metric, samples in per_kind.items():
        if any(samples):
            lines.append(f"  {metric:<22} s      {tail(samples)}")
        else:
            lines.append(f"  {metric:<22} s      n/a: this workload does not run `favd {COMMAND_METRICS[metric]}`")
    predict_names = sum(c.names for c in wl.commands() if c.kind == "predict")
    if predict_names:
        rate = predict_names / statistics.median(per_kind["predict_s"])
        lines.append(f"  {'predict_names_per_s':<22} 1/s    {rate:.1f} ({predict_names} names per pass)")
    else:
        lines.append(f"  {'predict_names_per_s':<22} 1/s    n/a: no predict")
    if any(per_kind["harvest_s"]):
        mb = wl.tree_bytes / 1e6
        rate = mb / statistics.median(per_kind["harvest_s"])
        lines.append(f"  {'harvest_mb_per_s':<22} MB/s   {rate:.3f} ({mb:.2f} MB of C per pass)")
    else:
        lines.append(f"  {'harvest_mb_per_s':<22} MB/s   n/a: no harvest")
    return gated, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="rewrite golden.json from this run's outputs (default seed only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src/favd/cli.py").is_file():
        print(f"bench: no favd sources at {ROOT / 'src/favd'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}",
              file=sys.stderr)
        return 2
    pins_path = BENCH / "golden.json"
    pins = None
    if args.seed == DEFAULT_SEED and not args.update_pins:
        pins = json.loads(pins_path.read_text(encoding="utf-8"))

    wl, setup_times, passes, layers, problems, attempted, failed = run_workload(args, spec, pins)

    if args.update_pins:
        if args.seed != DEFAULT_SEED or failed or problems:
            print("bench: pins are only written from a clean run of the default seed", file=sys.stderr)
            return 1
        paths = wl.pinned_inputs + [p for c in wl.commands() for p in c.outputs]
        doc = json.loads(pins_path.read_text(encoding="utf-8")) if pins_path.exists() else {}
        doc[args.workload] = OutputChecker(args.workload, {}, WORK / args.workload).digests(paths)
        pins_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    correct = failed == 0 and not problems
    print(f"favd benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)}")
    if args.trace:
        idle = [layer for layer in wl.exercises
                if any(calls[layer] == 0 for calls, _ in layers)]
        if idle:
            correct = False
            print(f"trace check failed: no calls recorded in {idle}", file=sys.stderr)
        # Counts repeat exactly from pass to pass; median_low keeps them whole numbers.
        metrics = {name: (statistics.median_low if unit in ("count", "bytes") else statistics.median)(
                       m[name] for _, m in layers) for name, unit in tracing.UNITS.items()}
        for name, value in metrics.items():
            print(f"  {name:<32} {tracing.UNITS[name]:<6} {value:.6g}")
        result = {name: {"value": value, "unit": tracing.UNITS[name]}
                  for name, value in metrics.items() if name not in tracing.CONTEXT}
    else:
        gated, lines = end_to_end(wl, setup_times, passes, attempted, failed)
        print("\n".join(lines))
        result = {name: {"value": gated[name], "unit": UNITS[name]} for name in UNITS}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
