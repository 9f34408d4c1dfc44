"""CLI reports replayed byte for byte against goldens.

tests/golden/cases.json lists each invocation with its exit code; the
report it printed is in tests/golden/<name>.out.  The goldens were
captured from the evaluate-based differential assembly and the
row-at-a-time elimination, so they pin the reports across changes to how
the matrices are built and reduced.
"""

import json
from pathlib import Path

import pytest

from filicoh import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case, capsys):
    code = cli.main(list(case["argv"]))
    out = capsys.readouterr().out
    want = (GOLDEN / f"{case['name']}.out").read_bytes()
    assert code == case["exit_code"]
    assert out.encode("utf-8") == want
