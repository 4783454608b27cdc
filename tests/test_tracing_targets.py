"""The benchmark's tracer wraps favd functions by name; each name must still exist.

`bench/run.py --trace 1` looks up every `TARGETS` name with `getattr`, so a
renamed or deleted function breaks traced benchmark runs. The benchmark's
own tests are not collected with these, hence this check here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_is_bound_in_its_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"favd.{layer}.{name}"
        for layer, names in tracing.TARGETS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"favd.{layer}"), name, None))
    ]
    assert tracing.TARGETS and not missing
