"""The benchmark's child process runs a traced report byte for byte like an
untraced one.

bench/invoke.py wraps the functions bench/spans.py names only when asked
to trace, so a wrapper that breaks a call, or a span name that no call
reaches, would otherwise first show up as a failed `bench/run.py --trace 1`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

INVOKE = Path(__file__).resolve().parents[1] / "bench" / "invoke.py"
ARGV = ["verify", "--prime", "3", "--lambda", "all", "--format", "json"]


def invoke(tmp_path, *trace):
    done = subprocess.run(
        [sys.executable, str(INVOKE), str(tmp_path / "timing.json"), *trace, "--", *ARGV],
        capture_output=True,
        check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=120,
    )
    timing = json.loads((tmp_path / "timing.json").read_text())
    assert timing["rc"] == 0
    return done.stdout


def test_traced_report_matches_untraced(tmp_path):
    spans_path = tmp_path / "spans.json"
    untraced = invoke(tmp_path)
    traced = invoke(tmp_path, "--trace", str(spans_path))
    assert traced == untraced
    assert json.loads(untraced)["ok"] is True
    names = {span[2] for span in json.loads(spans_path.read_text())["spans"]}
    assert "restricted_cochains.correction" in names
