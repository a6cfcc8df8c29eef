"""Batch command line front end.

Verbs:
    compute <job.json>        run a job, print the canonical JSON report
    check <name> <job.json>   run one named check against the job's DG-ring
    suite <dir>               run every fixture job in a directory

Exit codes: 0 all-pass, 1 check failure, 2 input error, 3 resource-cap
diagnostic.  The canonical report goes to stdout (or --out); human
summaries and timings go to stderr.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from .checks import CHECK_NAMES
from .fields import FieldError
from .jobs import JobError, RunConfig, canonical_json, read_job, run_job, run_suite
from .poly import DEFAULT_DEGREE_CAP

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


def _parse_field_flag(text: str):
    if text == "rationals":
        return {"kind": "rationals"}
    if text.startswith("prime:") or text.isdigit():
        try:
            return {"kind": "prime", "p": int(text.removeprefix("prime:"))}
        except ValueError:
            pass
    raise FieldError(f"cannot parse field flag {text!r}")


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _load_job(path: str, args) -> dict:
    job = read_job(path)
    if not isinstance(job, dict):
        raise JobError("a job must be a JSON object")
    if args.field and "field" not in job:
        job["field"] = _parse_field_flag(args.field)
    return job


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args) -> RunConfig:
    return RunConfig(
        oracle_depth=args.oracle_depth,
        budget=args.budget,
        degree_cap=args.degree_cap,
    )


def _report_exit(report: dict) -> int:
    if report["status"] == "input-error":
        return EXIT_INPUT_ERROR
    if report["status"] == "resource-cap":
        return EXIT_RESOURCE_CAP
    if report["status"] == "task-error":
        return EXIT_INPUT_ERROR
    if not report["expectations_met"]:
        return EXIT_CHECK_FAILURE
    for record in report["results"]:
        result = record.get("result") or {}
        verdict = result.get("verdict")
        if verdict is not None and verdict != "PASS" and "expected" not in record:
            return EXIT_CHECK_FAILURE
    return EXIT_OK


def _summarize(label: str, report: dict, elapsed: float) -> None:
    """One stderr line: the error of a job that never ran, or the label."""
    failed = report["status"] == "input-error"
    line = f"input error: {report['error']}" if failed else f"{label} ({elapsed:.2f}s)"
    print(line, file=sys.stderr)


def cmd_compute(args) -> int:
    try:
        job = _load_job(args.job, args)
    except (OSError, json.JSONDecodeError, FieldError, JobError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    started = time.monotonic()
    report = run_job(job, _config(args))
    elapsed = time.monotonic() - started
    _emit(canonical_json(report), args.out)
    _summarize(f"status: {report['status']}", report, elapsed)
    return _report_exit(report)


def cmd_check(args) -> int:
    try:
        job = _load_job(args.job, args)
        check_args = job.pop("check_args", {})
        if not isinstance(check_args, dict):
            raise JobError("'check_args' must be a JSON object")
        for key in ("task", "name"):
            if key in check_args:
                raise JobError(f"'check_args' must not set {key!r}: the verb names the check")
    except (OSError, json.JSONDecodeError, FieldError, JobError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    task = {"task": "check", "name": args.name}
    task.update(check_args)
    if args.expect:
        task["expect"] = args.expect
    job["tasks"] = [task]
    started = time.monotonic()
    report = run_job(job, _config(args))
    elapsed = time.monotonic() - started
    _emit(canonical_json(report), args.out)
    record = report["results"][0] if report["results"] else {}
    verdict = (record.get("result") or {}).get("verdict", record.get("status"))
    _summarize(f"{args.name}: {verdict}", report, elapsed)
    return _report_exit(report)


def cmd_suite(args) -> int:
    pattern = os.path.join(args.dir, "*.json")
    paths = sorted(glob.glob(pattern))
    if not paths:
        print(f"no fixtures found under {args.dir}", file=sys.stderr)
        aggregate = {"schema": 1, "fixtures": [], "missing": [], "all_passed": True}
        _emit(canonical_json(aggregate), args.out)
        return EXIT_OK
    started = time.monotonic()
    aggregate = run_suite(paths, _config(args))
    elapsed = time.monotonic() - started
    _emit(canonical_json(aggregate), args.out)
    for entry in aggregate["fixtures"]:
        flag = "PASS" if entry["status"] == "ok" and entry["expectations_met"] else "FAIL"
        print(f"{flag} {entry['fixture']}", file=sys.stderr)
    for entry in aggregate["missing"]:
        print(f"UNREADABLE {entry['fixture']}: {entry['error']}", file=sys.stderr)
    print(
        f"suite: {'all passed' if aggregate['all_passed'] else 'FAILURES'} "
        f"({elapsed:.2f}s)",
        file=sys.stderr,
    )
    statuses = {e["status"] for e in aggregate["fixtures"]}
    if "resource-cap" in statuses:
        return EXIT_RESOURCE_CAP
    if aggregate["missing"] or statuses & {"input-error", "task-error"}:
        return EXIT_INPUT_ERROR
    return EXIT_OK if aggregate["all_passed"] else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="default field: a prime p or 'rationals'")
    common.add_argument(
        "--degree-cap",
        type=_non_negative_int, default=DEFAULT_DEGREE_CAP,
        help=f"S-pair degree cap (default {DEFAULT_DEGREE_CAP})",
    )
    common.add_argument(
        "--budget", type=_non_negative_int, default=400, help="regular-sequence search budget"
    )
    common.add_argument(
        "--oracle-depth",
        type=_non_negative_int,
        default=8,
        help="truncation-oracle cross-check depth (0 disables)",
    )
    common.add_argument("--out", help="write the report to a file instead of stdout")
    parser = argparse.ArgumentParser(
        prog="dgkoszul",
        description="Koszul DG-ring calculus over graded quotient rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_compute = sub.add_parser("compute", parents=[common], help="run a job file")
    p_compute.add_argument("job")
    p_compute.set_defaults(func=cmd_compute)
    p_check = sub.add_parser("check", parents=[common], help="run one named check")
    p_check.add_argument("name", choices=CHECK_NAMES)
    p_check.add_argument("job")
    p_check.add_argument("--expect", help="expected verdict for exit-code purposes")
    p_check.set_defaults(func=cmd_check)
    p_suite = sub.add_parser("suite", parents=[common], help="run a fixture directory")
    p_suite.add_argument("dir")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
