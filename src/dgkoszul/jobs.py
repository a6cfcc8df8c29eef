"""Job descriptions, the batch runner, and deterministic reports.

A job is a JSON document: a field, variables, a defining ideal, a nestable
DG-ring construction, and a task list.  Reports echo the job, carry one
result record per task (failures are isolated per task), and serialize to
canonical JSON: identical jobs give byte-identical reports.  Timings never
enter the canonical report.
"""

from __future__ import annotations

import json

from . import groebner as gb
from .checks import _is_text_list, run_check
from .complexes import oracle_basis_size, truncation_oracle
from .dgring import DGRingRep, ElementOfH0, dg_from_ring, dg_tensor, koszul, trivial_extension
from .duality import dualizing_complex, dualizing_of_koszul, is_gorenstein_ring
from .fields import field_from_json
from .hilbert import table_json
from .invariants import compute_invariants, sentinel_json
from .modules import FPModule
from .parse import ParseError, parse_poly
from .poly import DEFAULT_DEGREE_CAP, column_to_vec
from .rings import MAX_VARIABLES, QuotientRing, quotient_ring_from_strings

SCHEMA_VERSION = 1

# Bounds on user-controlled sizes, checked before any work starts (the
# variable count, MAX_VARIABLES, lives in rings.py).  The oracle's graded
# pieces in degree t have about C(t+n-1, n-1) basis vectors per generator,
# so its work grows like depth^(n-1); its total basis size
# (complexes.oracle_basis_size, an upper bound) is bounded too.  The
# oracle's time grows a little faster than that size: on a 2-vCPU Xeon, the
# oracle of Koszul on all variables of k[x0..x3]/(x0x1-x2x3) to depth 16
# (bound 50,049) took 0.035 s over F_32003 and 0.044 s over Q, in 5
# variables to depth 13 (124,515) 0.11 s and 0.15 s, and in 6 variables to
# depth 16 (1,884,961) 2.9 s and 3.5 s.
MAX_ORACLE_DEPTH = 16
MAX_ORACLE_BASIS = 100_000
# Declared Koszul degrees and module twists become exponents of Hilbert
# series, and hilbert._divide_by_one_minus_t walks the whole exponent span:
# the reduced numerator of (1 - t^D)/(1 - t) really has |D| terms.  Over
# k[x,y]/(xy), a zero Koszul element of degree -10^7 cost 0.7 s, -10^8 7 s,
# and -10^12 did not finish.
MAX_DEGREE = 1000
# build_dg recurses once per construction level, and a report echoes its
# job, inside a suite's aggregate three levels deeper; json decodes and
# encodes recursively too.  A job nested near the interpreter's recursion
# limit leaves none of them room.
MAX_NESTING = 100


class JobError(ValueError):
    pass


class RunConfig:
    def __init__(self, oracle_depth: int = 8, budget: int = 400,
                 degree_cap: int = DEFAULT_DEGREE_CAP):
        self.oracle_depth = oracle_depth
        self.budget = budget
        self.degree_cap = degree_cap


def _build_module(spec: dict, ring: QuotientRing) -> FPModule:
    if not isinstance(spec, dict):
        raise JobError("a module must be a JSON object")
    twists = spec.get("twists", [0])
    if not _is_degree_list(twists):
        raise JobError(f"module 'twists' must list integers from -{MAX_DEGREE} to {MAX_DEGREE}")
    rels = spec.get("rels", [])
    if not (isinstance(rels, list) and all(map(_is_text_list, rels))):
        raise JobError("module 'rels' must be a list of polynomial columns")
    cols = []
    for col in rels:
        if len(col) != len(twists):
            raise JobError("module relation column length must match twists")
        cols.append(column_to_vec(parse_poly(t, ring.poly_ring) for t in col))
    return FPModule(ring, twists, cols)


def build_dg(spec: dict, ring: QuotientRing) -> DGRingRep:
    if not isinstance(spec, dict):
        raise JobError("a dg construction must be a JSON object")
    kind = spec.get("kind", "ring")
    if kind == "ring":
        return dg_from_ring(ring)
    if kind == "koszul":
        base = build_dg(spec.get("base", {"kind": "ring"}), ring)
        degrees = spec.get("degrees")
        texts = spec.get("elements", [])
        if not _is_text_list(texts):
            raise JobError("koszul 'elements' must be a list of polynomials")
        if degrees is not None and not (_is_degree_list(degrees) and len(degrees) == len(texts)):
            raise JobError(
                f"koszul 'degrees' must list one integer from -{MAX_DEGREE} to {MAX_DEGREE}"
                " per element"
            )
        elems = []
        for idx, text in enumerate(texts):
            p = parse_poly(text, ring.poly_ring)
            deg = degrees[idx] if degrees is not None else None
            elems.append(ElementOfH0(p, degree=deg if p.is_zero() else None))
        return koszul(base, elems)
    if kind == "trivial_extension":
        module = _build_module(spec.get("module", {}), ring)
        shift = spec.get("shift", 1)
        if type(shift) is not int:
            raise JobError("trivial extension 'shift' must be an integer")
        return trivial_extension(ring, module, shift)
    if kind == "tensor":
        if "left" not in spec or "right" not in spec:
            raise JobError("a tensor construction needs 'left' and 'right'")
        return dg_tensor(build_dg(spec["left"], ring), build_dg(spec["right"], ring))
    raise JobError(f"unknown dg construction {kind!r}")


def _check_nesting(value) -> None:
    """Raise JobError if lists and objects nest more than MAX_NESTING
    levels deep in the JSON value (counted level by level, not by
    recursion)."""
    depth, level = 0, [value]
    while level:
        level = [c for c in level if isinstance(c, (dict, list))]
        if level and depth == MAX_NESTING:
            raise JobError(f"a job may nest lists and objects at most {MAX_NESTING} levels deep")
        depth += 1
        level = [v for c in level for v in (c.values() if isinstance(c, dict) else c)]


def _job_context(job: dict, degree_cap: int):
    if not isinstance(job, dict):
        raise JobError("a job must be a JSON object")
    _check_nesting(job)
    field = field_from_json(job.get("field"))
    variables = job.get("vars")
    if not (variables and _is_text_list(variables) and len(variables) <= MAX_VARIABLES):
        raise JobError(f"'vars' must list 1 to {MAX_VARIABLES} variable names")
    ideal = job.get("ideal", [])
    if not _is_text_list(ideal):
        raise JobError("'ideal' must be a list of polynomials")
    tasks = job.get("tasks", [])
    if not (isinstance(tasks, list) and all(isinstance(t, dict) for t in tasks)):
        raise JobError("'tasks' must be a list of JSON objects")
    if not isinstance(job.get("sequences", {}), dict):
        raise JobError("'sequences' must be a JSON object")
    try:
        ring = quotient_ring_from_strings(variables, ideal, field, degree_cap)
        return build_dg(job.get("dg", {"kind": "ring"}), ring)
    except ParseError as exc:
        raise JobError(f"parse error: {exc}") from exc


def _task_invariants(dg: DGRingRep, task: dict, config: RunConfig) -> dict:
    ideals = task.get("ideals") or {}
    if not (isinstance(ideals, dict) and all(map(_is_text_list, ideals.values()))):
        raise JobError("'ideals' must map names to lists of polynomials")
    witness = task.get("witness", True)
    if not isinstance(witness, bool):
        raise JobError("'witness' must be true or false")
    return compute_invariants(dg, ideals=ideals, with_witness=witness, budget=config.budget)


def _oracle_record(K, depth: int) -> dict:
    """The truncation oracle on K's built complex against the Hilbert
    functions of K's homology series, which come from its model."""
    oracle = truncation_oracle(K.underlying, depth)
    series = {i: K.model.homology_series(i) for i in oracle}
    symbolic = {i: {t: series[i].coefficient(t) for t in row} for i, row in oracle.items()}
    return {
        "depth": depth,
        "agrees": oracle == symbolic,
        "oracle": {str(i): {str(t): v for t, v in row.items()} for i, row in sorted(oracle.items())},
    }


def _task_koszul(dg: DGRingRep, task: dict, config: RunConfig) -> dict:
    depth = task.get("oracle_depth", config.oracle_depth)
    if type(depth) is not int or not 0 <= depth <= MAX_ORACLE_DEPTH:
        raise JobError(f"'oracle_depth' must be an integer from 0 to {MAX_ORACLE_DEPTH}")
    K = koszul(dg, task.get("elements") or [])
    size = oracle_basis_size(K.underlying, depth) if depth else 0
    if size > MAX_ORACLE_BASIS:
        raise JobError(
            f"the oracle to depth {depth} would build {size} basis vectors, "
            f"above the bound {MAX_ORACLE_BASIS}; lower 'oracle_depth'"
        )
    out = {
        "inf": sentinel_json(K.inf()),
        "sup": sentinel_json(K.sup()),
        "amp": sentinel_json(K.amp()),
        "h0_hilbert": K.h0.hilbert_series().to_json(),
        "dim_h0": sentinel_json(K.h0.dim()),
        "homology": table_json(K.homology_table()),
    }
    if depth:
        out["oracle"] = _oracle_record(K, depth)
    return out


def _task_duality(dg: DGRingRep, task: dict, config: RunConfig) -> dict:
    ring = dg.base
    gor, data = is_gorenstein_ring(ring)
    R = dualizing_complex(ring)
    out = {
        "ring_gorenstein": gor,
        "ring_data": data,
        "dualizing_amp": sentinel_json(R.amp()),
        "dualizing_inf": sentinel_json(R.inf()),
    }
    K = koszul(dg, task.get("elements") or [])
    if K.kind == "koszul" and K.lifts is not None:
        D = dualizing_of_koszul(K)
        out["amp_koszul"] = sentinel_json(K.amp())
        out["amp_dual"] = sentinel_json(D.amp())
        out["amp_equal"] = out["amp_koszul"] == out["amp_dual"]
        out["dual_homology"] = table_json(D.homology_table())
    return out


def _is_degree_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int and abs(v) <= MAX_DEGREE for v in value)


_SEQUENCE_KEYS = ("elements", "ideal", "first", "second", "alternates", "images")


def _resolve_sequences(task: dict, sequences: dict) -> dict:
    """Replace string-valued element lists with named top-level sequences."""
    out = dict(task)
    for key in _SEQUENCE_KEYS:
        if out.get(key) is not None:
            out[key] = _element_list(key, out[key], sequences)
    alt_gens = out.get("alt_gens")
    if alt_gens is not None:
        if not isinstance(alt_gens, list):
            raise JobError("'alt_gens' must be a list of element lists or sequence names")
        out["alt_gens"] = [_element_list("alt_gens", v, sequences) for v in alt_gens]
    return out


def _element_list(key: str, value, sequences: dict) -> list:
    if isinstance(value, str):
        if value not in sequences:
            raise JobError(f"unknown sequence name {value!r}")
        value = sequences[value]
    if not _is_text_list(value):
        raise JobError(f"{key!r} must be a list of polynomials or a sequence name")
    return value


def _expect_matches(expected, actual) -> bool:
    """Deep subset comparison: every expected key/value must be present."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return False
        return all(
            k in actual and _expect_matches(v, actual[k])
            for k, v in expected.items()
        )
    return expected == actual


def run_job(job: dict, config: RunConfig | None = None) -> dict:
    """Execute all tasks in a job; per-task failures are isolated.

    All rings of the job share one PolyRing, built for this job, which
    carries the config's degree cap and the job's Hilbert-numerator memo,
    so a job never changes how later jobs run.
    """
    config = config or RunConfig()
    report = {
        "schema": SCHEMA_VERSION,
        "job": job,
        "results": [],
        "notes": [],
    }
    try:
        dg = _job_context(job, config.degree_cap)
    except gb.DegreeCapExceeded as exc:
        report["error"] = str(exc)
        report["status"] = "resource-cap"
        return report
    except ValueError as exc:
        report["error"] = str(exc)
        report["status"] = "input-error"
        return report
    sequences = job.get("sequences", {})
    for idx, task in enumerate(job.get("tasks", [])):
        kind = task.get("task")
        record = {"index": idx, "task": kind}
        try:
            task = _resolve_sequences(task, sequences)
            if kind == "invariants":
                record["result"] = _task_invariants(dg, task, config)
            elif kind == "koszul":
                record["result"] = _task_koszul(dg, task, config)
            elif kind == "duality":
                record["result"] = _task_duality(dg, task, config)
            elif kind == "check":
                record["result"] = run_check(
                    task.get("name", ""), dg, task, config
                )
            else:
                raise JobError(f"unknown task kind {kind!r}")
            record["status"] = "ok"
        except gb.DegreeCapExceeded as exc:
            record["status"] = "resource-cap"
            record["error"] = str(exc)
        except ValueError as exc:
            record["status"] = "error"
            record["error"] = str(exc)
        expected = task.get("expect")
        if expected is not None and record["status"] == "ok":
            # normalize tuples/int-keys through a JSON round trip
            actual = json.loads(json.dumps(record["result"]))
            if isinstance(expected, str):
                record["expected"] = expected
                record["meets_expectation"] = actual.get("verdict") == expected
            else:
                record["expected"] = expected
                record["meets_expectation"] = _expect_matches(expected, actual)
        elif expected is not None:
            record["expected"] = expected
            record["meets_expectation"] = False
        if record.get("result", {}).get("discrepancy_note"):
            report["notes"].append(
                {"task": idx, "note": record["result"]["discrepancy_note"]}
            )
        report["results"].append(record)
    statuses = [r["status"] for r in report["results"]]
    if any(s == "resource-cap" for s in statuses):
        report["status"] = "resource-cap"
    elif any(s == "error" for s in statuses):
        report["status"] = "task-error"
    else:
        report["status"] = "ok"
    report["expectations_met"] = all(
        r.get("meets_expectation", True) for r in report["results"]
    )
    return report


def canonical_json(report: dict) -> str:
    """Byte-stable serialization (no timings, sorted keys)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def read_job(path: str):
    """The JSON value in the file at path, nested at most MAX_NESTING
    levels deep (JobError otherwise, also when it nests too deeply to
    decode)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            job = json.load(fh)
        except RecursionError:
            raise JobError("the job nests too deeply to decode") from None
    _check_nesting(job)
    return job


def run_suite(paths, config: RunConfig | None = None) -> dict:
    """Run every fixture job and aggregate expectation outcomes."""
    config = config or RunConfig()
    aggregate = {
        "schema": SCHEMA_VERSION,
        "fixtures": [],
        "missing": [],
    }
    all_ok = True
    for path in sorted(str(p) for p in paths):
        entry = {"fixture": path.split("/")[-1]}
        try:
            job = read_job(path)
        except (OSError, json.JSONDecodeError, JobError) as exc:
            entry["status"] = "unreadable"
            entry["error"] = str(exc)
            aggregate["missing"].append(entry)
            all_ok = False
            continue
        report = run_job(job, config)
        entry["status"] = report["status"]
        entry["expectations_met"] = report.get("expectations_met", False)
        entry["report"] = report
        if not (report["status"] == "ok" and report["expectations_met"]):
            all_ok = False
        aggregate["fixtures"].append(entry)
    aggregate["all_passed"] = all_ok
    return aggregate
