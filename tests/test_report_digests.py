"""Canonical reports of the suite fixtures are byte-identical to the
digests recorded in bench/digests.json."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dgkoszul import canonical_json, run_job

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))["suite"]["0"]


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "suite").glob("*.json")))
def test_suite_report_matches_recorded_digest(name):
    job = json.loads((ROOT / "suite" / name).read_text(encoding="utf-8"))
    text = canonical_json(run_job(job))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
