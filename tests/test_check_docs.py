"""Tests for the recorded-claim rule of tools/check_docs.py.

A doc sentence that calls a number *recorded* must quote a number that a
committed ``BENCH_*.json`` holds; the rule must fire on a fixture that
quotes one no BENCH file has, and the repo's own docs must pass it.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)


def test_recorded_claim_fires_on_a_number_no_bench_file_holds(tmp_path):
    (tmp_path / "BENCH_engine.json").write_text(
        json.dumps({"trajectory": [{"wall": 3.9187, "events": 332739}]})
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "perf.md").write_text(
        "# Perf\n\n"
        "The 64-node run was recorded at 3.92 s and 332,739 events.\n"
        "Python 3.11.7 ran it with `--seconds 20.5`.\n\n"
        "The sharded run, 6.51 s, was\nrecorded too. A 9.99 s run was not.\n"
    )
    errors = check_docs.check_recorded_claims(tmp_path)
    assert errors == [
        "docs/perf.md:6: 6.51 is quoted as recorded, but no BENCH_*.json holds it"
    ]


def test_repo_docs_quote_only_recorded_numbers():
    assert check_docs.check_recorded_claims(REPO_ROOT) == []
