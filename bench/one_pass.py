"""One pass over a workload's jobs, in a fresh interpreter.

``run.py`` starts this script once per pass, so that no process-global
state (the ``hilbert._numerator`` cache, ``groebner._degree_cap``) carries
from one pass or workload to the next.  It prints one JSON object: the
set-up time, the pass's wall time and peak RSS, one row per job (time,
canonical-report digest, problems found) and, when traced, the per-layer
metrics.  The jobs run with the default ``RunConfig``; ``degree_cap`` is
never passed, since it leaks into later jobs.

    python3 bench/one_pass.py --workload suite --seed 0 --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_jobs


def _meets(expected, actual) -> bool:
    """Every key of ``expected`` is in ``actual`` with a matching value."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            key in actual and _meets(value, actual[key]) for key, value in expected.items()
        )
    return expected == actual


def _oracle_disagrees(node) -> bool:
    if isinstance(node, dict):
        return node.get("agrees") is False or any(_oracle_disagrees(v) for v in node.values())
    if isinstance(node, list):
        return any(_oracle_disagrees(v) for v in node)
    return False


def problems_of(job: dict, report: dict) -> list[str]:
    """Why a report fails its job, checked here rather than by the program."""
    problems = []
    if report.get("status") != "ok":
        problems.append(f"status {report.get('status')!r}")
    for task, record in zip(job.get("tasks", []), report.get("results", [])):
        expected = task.get("expect")
        result = json.loads(json.dumps(record.get("result", {})))
        if expected is not None:
            if isinstance(expected, str):
                met = isinstance(result, dict) and result.get("verdict") == expected
            else:
                met = _meets(expected, result)
            if not met:
                problems.append(f"task {record.get('index')} misses its expect")
        if _oracle_disagrees(result):
            problems.append(f"task {record.get('index')} oracle disagrees")
    if len(report.get("results", [])) != len(job.get("tasks", [])):
        problems.append("task count differs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file to write the spans to when traced")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import dgkoszul.jobs as dg_jobs

    jobs = make_jobs(args.workload, args.seed, root)
    out = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        out["bindings"], out["untraced"] = tracer.install()

    clock = time.perf_counter
    texts, rows = [], []
    pass_start = clock()
    for index, (name, job) in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        start = clock()
        try:
            report = dg_jobs.run_job(job)
            text = dg_jobs.canonical_json(report)
            error = None
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            report, text, error = None, None, f"{type(exc).__name__}: {exc}"
        rows.append({"job": name, "seconds": clock() - start})
        texts.append((report, text, error))
    out["wall_s"] = clock() - pass_start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for row, (name, job), (report, text, error) in zip(rows, jobs, texts):
        if error is not None:
            row["digest"], row["problems"] = None, [error]
        else:
            row["digest"] = hashlib.sha256(text.encode()).hexdigest()
            row["problems"] = problems_of(job, report)
    out["jobs"] = rows

    if tracer is not None:
        out["layers"] = tracer.metrics()
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
