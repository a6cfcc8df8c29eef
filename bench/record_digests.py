"""Record the canonical-report digest of every benchmark job.

    python3 bench/record_digests.py

Runs every variant of every workload once, each in a fresh interpreter, and
writes digests.json.  A job is recorded only if its report passes every other
check (status ok, every expect met, oracle agreement), so the recorded
digests are of reports known to be right.  Rerun it only in a change that
is meant to alter canonical reports: otherwise any change to a report counts
as a failed job in run.py.
"""

import json
import sys
import time

from run import BENCH, run_pass
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    recorded = {}
    for workload in WORKLOADS:
        recorded[workload] = {}
        for variant in range(1 if workload == "suite" else VARIANTS):
            start = time.monotonic()
            result = run_pass(workload, variant)
            digests = {}
            for row in result["jobs"]:
                if row["problems"]:
                    print(f"{workload} variant {variant} {row['job']}: {row['problems']}",
                          file=sys.stderr)
                    return 1
                digests[row["job"]] = row["digest"]
            recorded[workload][str(variant)] = digests
            print(f"{workload} variant {variant}: {len(digests)} jobs, "
                  f"{time.monotonic() - start:.1f} s", flush=True)
    with open(BENCH / "digests.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
