"""Every function the benchmark's tracer wraps still exists in the package.

bench/spans.py names its targets by module and attribute and resolves them
only when a traced run starts, so a rename or deletion under src/ would
otherwise first show up as a failed `bench/run.py --trace 1`.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    missing = []
    for name, modname, attr in spans.TARGETS + spans.COUNTED:
        obj = importlib.import_module(f"filicoh.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append((name, f"filicoh.{modname}.{attr}"))
    assert not missing
    assert hasattr(importlib.import_module("filicoh.cli"), "ThreadPoolExecutor")
