"""Two traced passes give exactly the same per-layer counts.

Each pass runs in its own interpreter, as in the benchmark, so the counts
cannot depend on caches left by an earlier pass.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
COUNTED = (".calls", ".basis_out", ".zero_ratio", ".cap_hits")


def _traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload, "--seed", "0",
         "--trace", "1", "--t0", repr(time.monotonic())],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly():
    first, second = _traced_pass("suite"), _traced_pass("suite")
    counted = [name for name in first["layers"] if name.endswith(COUNTED)]
    assert len(counted) > 30
    assert {n: first["layers"][n] for n in counted} == {n: second["layers"][n] for n in counted}
    assert first["layers"]["jobs.run_job.calls"] == len(first["jobs"])
    assert [row["digest"] for row in first["jobs"]] == [row["digest"] for row in second["jobs"]]
    assert not any(row["problems"] for row in first["jobs"] + second["jobs"])
