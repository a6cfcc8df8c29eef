"""dgkoszul benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Workloads (see workloads.py):
  suite          the 32 acceptance fixtures in suite/: many small Groebner
                 bases, so per-call set-up cost dominates;
  koszul_ladder  generated jobs over F_32003 with the oracle off: a few large
                 Groebner bases (about 97% of the time under buchberger);
  oracle_sweep   Koszul homology of k[x,y,z,w]/(xy - zw) with a deep
                 truncation oracle over F_32003 and over Q (about 98% of the
                 time in the oracle and linalg).

Every pass runs in a fresh single-threaded interpreter (one_pass.py), one at
a time, until --seconds have passed.  Untraced pass k runs the inputs of
seed + k; a traced run uses the inputs of its seed in every pass.  Every job
of every pass is checked: its status is ok, each ``expect`` is met, no
oracle record disagrees and its canonical report has the digest recorded in
digests.json.

With --trace 0 the metrics are the end-to-end ones, medians over passes:
  wall_s       one pass over all jobs in order, tracing off;
  setup_s      interpreter start until the first job is ready (import
               dgkoszul and build the jobs), also sampled by set-up-only
               processes;
  peak_rss_mb  peak resident memory of the pass process.
With --trace 1, untraced and traced passes alternate and the metrics are the
per-layer ones of tracer.py, plus tracing_overhead_s, the traced minus the
untraced wall_s.  Traced and untraced reports must be byte-identical, and
jobs.run_job.calls must equal the number of jobs.  Spans are written to
.bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, make_jobs, variant_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 9  # set-up-only processes per run; every pass adds one more sample
MIN_PASSES = 3  # a median needs three passes, even where one pass takes half the run
TIME_LIMIT_S = 170  # the whole run must end within 180 s
RATIO_UNITS = ("zero_ratio", "hit_ratio")
# numpy's BLAS would otherwise start a worker thread per CPU in every pass.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def run_pass(workload, seed, trace=0, setup_only=False, spans=None, timeout=TIME_LIMIT_S):
    """Run one_pass.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
                              env={**os.environ, **SINGLE_THREADED})
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass of {workload} did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"a pass of {workload} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _git_sha() -> str:
    try:
        # GIT_DIR keeps git from taking the SHA of a repository above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def _header(workload, seed, seconds, trace):
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    print(f"# dgkoszul benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace}")
    print(f"# git {_git_sha()}; python {platform.python_version()}; numpy {numpy_version}; "
          f"nproc {os.cpu_count()}; cpu {_cpu_model()}; src lines {_src_lines()}")


class Tally:
    """Checks every job of every pass against the recorded digests."""

    def __init__(self, workload):
        with open(BENCH / "digests.json", encoding="utf-8") as fh:
            self.recorded = json.load(fh).get(workload, {})
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, result, label, seed):
        digests = self.recorded.get(str(variant_of(self.workload, seed)), {})
        if sorted(row["job"] for row in result["jobs"]) != sorted(digests):
            self.problem(f"{label}: the jobs run are not the jobs recorded in digests.json")
        for row in result["jobs"]:
            problems = list(row["problems"])
            if row["digest"] is not None and row["digest"] != digests.get(row["job"]):
                problems.append("canonical report differs from the recorded one")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.messages.append(f"{label} {row['job']}: {'; '.join(problems)}")

    def problem(self, message):
        self.messages.append(message)


def _job_rows(passes):
    names = [row["job"] for row in passes[0]["jobs"]]
    walls = " ".join(f"{p['wall_s']:.3f}" for p in passes)
    print(f"# pass wall_s in run order: {walls}")
    print(f"# per-job seconds, median of {len(passes)} passes (not gated):")
    for k, name in enumerate(names):
        times = [p["jobs"][k]["seconds"] for p in passes]
        print(f"#   {name:40s} {statistics.median(times):.4f}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _another_pass(last_wall, deadline, start) -> bool:
    """Start one more pass only if it ends near the deadline at the latest
    and surely within the time limit."""
    now = time.monotonic()
    return now + 0.5 * last_wall < deadline and now - start + 1.5 * last_wall + 2 < TIME_LIMIT_S


def _untraced(workload, seed, seconds, tally, start):
    setups = [run_pass(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES)]
    deadline = time.monotonic() + seconds
    passes = []
    while len(passes) < MIN_PASSES or _another_pass(passes[-1]["wall_s"], deadline, start):
        # Pass k runs the inputs of seed + k, so that one run measures several
        # coordinate changes and its median depends less on any single one.
        pass_seed = seed + len(passes)
        result = run_pass(workload, pass_seed, timeout=TIME_LIMIT_S - (time.monotonic() - start))
        tally.add(result, f"pass {len(passes)} (seed {pass_seed})", pass_seed)
        passes.append(result)
    setups += [p["setup_s"] for p in passes]
    _job_rows(passes)
    print(f"# {len(passes)} passes, {len(setups)} set-up samples")
    return {
        "wall_s": _metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def _traced(workload, seed, seconds, tally, start):
    from tracer import NAMES, UNTRACED_NOTE

    spans_dir = ROOT / ".bench_out"
    spans_dir.mkdir(exist_ok=True)
    untraced, traced = [], []
    last_wall = 0.0
    deadline = time.monotonic() + seconds
    while not (untraced and traced) or _another_pass(last_wall, deadline, start):
        elapsed = time.monotonic() - start
        if len(traced) < len(untraced):
            spans = spans_dir / f"spans-{workload}-pass{len(traced)}.jsonl"
            result = run_pass(workload, seed, trace=1, spans=spans,
                               timeout=TIME_LIMIT_S - elapsed)
            tally.add(result, f"traced pass {len(traced)}", seed)
            traced.append(result)
        else:
            result = run_pass(workload, seed, timeout=TIME_LIMIT_S - elapsed)
            tally.add(result, f"untraced pass {len(untraced)}", seed)
            untraced.append(result)
        last_wall = result["wall_s"]

    reference = [row["digest"] for row in untraced[0]["jobs"]]
    counted = {k: v for k, v in traced[0]["layers"].items() if not k.endswith(".self_s")}
    for k, result in enumerate(traced):
        if [row["digest"] for row in result["jobs"]] != reference:
            tally.problem(f"traced pass {k}: reports differ from the untraced ones")
        if result["layers"]["jobs.run_job.calls"] != len(reference):
            tally.problem(f"traced pass {k}: jobs.run_job.calls is not the number of jobs")
        if {n: v for n, v in result["layers"].items() if n in counted} != counted:
            tally.problem(f"traced pass {k}: per-layer counts differ from traced pass 0")
    _job_rows(untraced)
    print(f"# {len(untraced)} untraced and {len(traced)} traced passes; "
          f"{traced[0]['bindings']} bindings wrapped; spans in {spans_dir.name}/")
    print(f"# {UNTRACED_NOTE}")
    if traced[0]["untraced"]:
        print(f"# not defined by the program, so reported as never called: "
              f"{', '.join(traced[0]['untraced'])}")

    metrics = {}
    for name in NAMES:
        metrics[f"{name}.calls"] = _metric(counted[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = _metric(
            statistics.median(p["layers"][f"{name}.self_s"] for p in traced), "s")
    for name, value in counted.items():
        if name not in metrics:
            metrics[name] = _metric(value, "ratio" if name.endswith(RATIO_UNITS) else "count")
    metrics["tracing_overhead_s"] = _metric(
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced), "s")
    return metrics


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dgkoszul" / "__init__.py").is_file():
        print(f"error: no dgkoszul sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        jobs = make_jobs(args.workload, args.seed, ROOT)
    except (OSError, ValueError) as exc:
        print(f"error: cannot build the {args.workload} jobs: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print(f"error: the {args.workload} workload has no jobs under {ROOT}", file=sys.stderr)
        return 2

    _header(args.workload, args.seed, args.seconds, args.trace)
    tally = Tally(args.workload)
    try:
        run = _traced if args.trace else _untraced
        metrics = run(args.workload, args.seed, args.seconds, tally, start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in tally.messages:
        print(f"# FAIL {message}")
    print(f"# fail_ratio {tally.failed}/{tally.attempted}")
    print(json.dumps({
        "correct": not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
