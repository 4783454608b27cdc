"""Run one command and report its exit code, wall time, CPU time and peak RSS.

    python3 bench/launch.py RESULT.json command...

The benchmark starts every child through this small process. On Linux a
child's peak RSS (ru_maxrss) includes the peak RSS of the process it was
forked from, up to its exec; forked straight from the benchmark, which holds
the inputs and the independent checker's tables, a favd command would report
the benchmark's peak instead of its own. Forked from here, the inherited
part is this process's few megabytes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def main(result_path: str, cmd: list[str]) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "peak_rss_mb": usage.ru_maxrss / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
