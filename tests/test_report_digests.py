"""Canonical reports are byte-identical to the digests recorded in
bench/digests.json: every suite fixture, and the variant-0 (identity
coordinates) jobs of the koszul_ladder workload."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from dgkoszul import canonical_json, run_job

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
LADDER = dict(workloads.make_jobs("koszul_ladder", 0, ROOT))


def _digest(job) -> str:
    return hashlib.sha256(canonical_json(run_job(job)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "suite").glob("*.json")))
def test_suite_report_matches_recorded_digest(name):
    job = json.loads((ROOT / "suite" / name).read_text(encoding="utf-8"))
    assert _digest(job) == DIGESTS["suite"]["0"][name]


@pytest.mark.parametrize("name", sorted(LADDER))
def test_koszul_ladder_report_matches_recorded_digest(name):
    assert _digest(LADDER[name]) == DIGESTS["koszul_ladder"]["0"][name]
