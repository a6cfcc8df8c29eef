"""Canonical reports are byte-identical to the digests recorded in
bench/digests.json: every suite fixture, and every job of every recorded
coordinate variant of the koszul_ladder and oracle_sweep workloads."""

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


def _digest(job) -> str:
    return hashlib.sha256(canonical_json(run_job(job)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "suite").glob("*.json")))
def test_suite_report_matches_recorded_digest(name):
    job = json.loads((ROOT / "suite" / name).read_text(encoding="utf-8"))
    assert _digest(job) == DIGESTS["suite"]["0"][name]


# make_jobs reads its seed modulo VARIANTS, so seed v gives variant v.
VARIANT_JOBS = [
    (workload, variant, name, job)
    for workload in ("koszul_ladder", "oracle_sweep")
    for variant in range(workloads.VARIANTS)
    for name, job in workloads.make_jobs(workload, variant, ROOT)
]


@pytest.mark.parametrize(
    "workload, variant, name, job",
    VARIANT_JOBS,
    ids=[f"{w}-{v}-{n}" for w, v, n, _ in VARIANT_JOBS],
)
def test_workload_report_matches_recorded_digest(workload, variant, name, job):
    assert _digest(job) == DIGESTS[workload][str(variant)][name]
