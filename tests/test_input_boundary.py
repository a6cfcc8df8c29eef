"""The job boundary: malformed or oversized input gives an input-error or
an error record (never an exception), and one job never changes how a
later job in the same process behaves."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dgkoszul import (
    FPModule, PolyRing, PrimeField, QuotientRing, RunConfig, min_gens, parse_poly,
    run_job,
)
from dgkoszul import groebner as gb
from dgkoszul.checks import MAX_EULER_DEPTH
from dgkoszul.cli import EXIT_INPUT_ERROR, _report_exit
from dgkoszul.dgring import MAX_COMPLEX_RANK
from dgkoszul.fields import FieldError
from dgkoszul.jobs import (
    MAX_DEGREE, MAX_NESTING, MAX_ORACLE_BASIS, MAX_ORACLE_DEPTH, MAX_VARIABLES,
)
from dgkoszul.parse import MAX_EXPONENT, ParseError
from dgkoszul.poly import MAX_PRODUCT_TERMS

SUITE = Path(__file__).resolve().parent.parent / "suite"


def _job(**overrides):
    job = {
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x", "y"],
        "ideal": [],
        "dg": {"kind": "ring"},
        "tasks": [{"task": "koszul", "elements": ["x"], "oracle_depth": 0}],
    }
    job.update(overrides)
    return job


def test_degree_cap_does_not_leak_into_later_jobs():
    # The ring's Groebner basis needs the degree-3 S-pair of x^2 + y^2 and xy.
    job = _job(ideal=["x^2 + y^2", "x*y"])
    job["tasks"][0]["elements"] = ["x", "y"]
    assert run_job(job)["status"] == "ok"
    assert run_job(job, RunConfig(degree_cap=2))["status"] == "resource-cap"
    assert run_job(job)["status"] == "ok"


# Each Buchberger call site of the package, fed two quadrics over k[x,y]
# whose leads x^2 and x*y need an S-pair of degree 3.
def _quadrics(S):
    return [parse_poly(t, S).vec for t in ("x^2 + y^2", "x*y")]


CAP_SITES = {
    "QuotientRing.groebner": lambda S: QuotientRing(
        S, [parse_poly("x^2 + y^2", S), parse_poly("x*y", S)]
    ).groebner(),
    # (x^2) needs no S-pair; x^2 against 1 - t*x in S[t] needs one of degree 3.
    "QuotientRing.is_nilpotent": lambda S: QuotientRing(
        S, [parse_poly("x^2", S)]
    ).is_nilpotent(parse_poly("x", S)),
    "FPModule._reduced_basis": lambda S: FPModule(
        QuotientRing(S), (0,), _quadrics(S)
    ).hilbert_series(),
    "min_gens": lambda S: min_gens(_quadrics(S), FPModule(QuotientRing(S), (0,))),
    "groebner.syzygies": lambda S: gb.syzygies(_quadrics(S), (0,), S),
}


@pytest.mark.parametrize("site", CAP_SITES)
def test_the_degree_cap_travels_with_the_ring(site):
    run = CAP_SITES[site]
    with pytest.raises(gb.DegreeCapExceeded) as hit:
        run(PolyRing(["x", "y"], PrimeField(32003), degree_cap=2))
    assert (hit.value.cap, hit.value.degree) == (2, 3)
    run(PolyRing(["x", "y"], PrimeField(32003)))


def test_a_base_change_target_ring_honours_the_job_cap():
    def job(target_ideal):
        check = {
            "task": "check", "name": "base_change", "elements": ["x"], "images": ["u", "v"],
            "target": {"vars": ["u", "v"], "ideal": target_ideal},
        }
        return _job(tasks=[check])

    # Only the target ideal (u^2 + v^2, u*v) needs an S-pair of degree 3.
    assert run_job(job([]), RunConfig(degree_cap=2))["status"] == "ok"
    capped = run_job(job(["u^2 + v^2", "u*v"]), RunConfig(degree_cap=2))
    assert capped["results"][0]["status"] == "resource-cap"
    assert capped["results"][0]["error"] == "S-pair of degree 3 exceeds the configured cap 2"
    assert run_job(job(["u^2 + v^2", "u*v"]))["status"] == "ok"


def test_degree_cap_hit_while_building_the_dg_ring_is_a_resource_cap():
    job = json.loads((SUITE / "a11_oracle_trivial_extension.json").read_text(encoding="utf-8"))
    report = run_job(job, RunConfig(degree_cap=0))
    assert report["status"] == "resource-cap"
    assert report["error"] == "S-pair of degree 2 exceeds the configured cap 0"
    assert report["results"] == []
    assert run_job(job)["status"] == "ok"

# 2^31 + 11 is the least prime above 2^31; 4294967291 is the largest below 2^32.
@pytest.mark.parametrize("p", [2**31 + 11, 4294967291, "abc", 7.0, None])
def test_prime_field_rejects_out_of_range_or_non_integer(p):
    with pytest.raises(FieldError):
        PrimeField(p)


def test_largest_admissible_prime_keeps_the_oracle_exact():
    # 2^31 - 1, the largest admissible prime: the oracle must still agree with Groebner.
    job = {
        "field": {"kind": "prime", "p": 2**31 - 1},
        "vars": ["x", "y", "z", "w"],
        "ideal": ["x*y - z*w"],
        "tasks": [{"task": "koszul", "elements": ["x", "y", "z", "w"], "oracle_depth": 5}],
    }
    report = run_job(job)
    assert report["status"] == "ok"
    assert report["results"][0]["result"]["oracle"]["agrees"] is True


def test_exponent_above_the_bound_is_rejected_at_once():
    R = PolyRing(("x", "y"), PrimeField())
    assert parse_poly(f"x^{MAX_EXPONENT}", R).total_degree() == MAX_EXPONENT
    start = time.monotonic()
    with pytest.raises(ParseError):
        parse_poly("x^1000000000", R)
    assert time.monotonic() - start < 1.0


def test_a_product_of_too_many_terms_is_refused_at_once():
    # Multiplied out, the product of 30 six-term linear forms has
    # C(35, 5) = 324,632 terms, and x^200 under a map sending x to a
    # six-term form has C(205, 5), about 2.9 * 10^9.  The first is parsed
    # from the ideal, the second substituted by the base-change check.
    forms = "*".join(["(a+b+c+d+e+f)"] * 30)
    base_change = {
        "task": "check", "name": "base_change", "elements": ["x^200"],
        "target": {"vars": list("abcdef"), "ideal": []}, "images": ["a+b+c+d+e+f"],
    }
    jobs = [
        _job(vars=list("abcdef"), ideal=[forms], tasks=[{"task": "invariants"}]),
        _job(vars=["x"], tasks=[base_change]),
    ]
    for job in jobs:
        start = time.monotonic()
        report = run_job(job)
        assert time.monotonic() - start < 1.0
        error = report.get("error") or report["results"][0]["error"]
        assert error.endswith(f"term pairs exceeds {MAX_PRODUCT_TERMS}")
        assert _report_exit(report) == EXIT_INPUT_ERROR
    # A product within the bound is multiplied out.
    R = PolyRing(tuple("abcdef"), PrimeField())
    assert len(parse_poly("*".join(["(a+b+c+d+e+f)"] * 5), R).vec) == 252


MALFORMED = {
    "prime above 2^31": _job(field={"kind": "prime", "p": 4294967291}),
    "non-integer prime": _job(field={"kind": "prime", "p": "abc"}),
    "tensor without factors": _job(dg={"kind": "tensor"}),
    "dg spec not an object": _job(dg={"kind": "koszul", "base": 5}),
    "dg elements not a list": _job(dg={"kind": "koszul", "elements": 5}),
    "huge exponent": _job(ideal=["x^1000000000"]),
    "task elements not a list": _job(tasks=[{"task": "koszul", "elements": 5}]),
    "task elements not text": _job(tasks=[{"task": "koszul", "elements": [5]}]),
    "sequence not a list": _job(
        sequences={"s": 5}, tasks=[{"task": "koszul", "elements": "s"}]
    ),
    "dg degrees not a list": _job(dg={"kind": "koszul", "elements": ["0"], "degrees": 5}),
    "dg degrees too short": _job(dg={"kind": "koszul", "elements": ["0", "0"], "degrees": [1]}),
    "dg degree far below the bound": _job(
        ideal=["x*y"], dg={"kind": "koszul", "elements": ["0", "x"], "degrees": [-10**12, 1]}
    ),
    "module twist far below the bound": _job(
        ideal=["x*y"],
        dg={
            "kind": "trivial_extension",
            "module": {"twists": [0, -10**12], "rels": [["x", "0"], ["0", "x"]]},
        },
    ),
    "task not an object": _job(tasks=[5]),
    "tasks not a list": _job(tasks=5),
    "module twists not a list": _job(dg={"kind": "trivial_extension", "module": {"twists": 5}}),
    "module not an object": _job(dg={"kind": "trivial_extension", "module": 5}),
    "module relation not a list": _job(
        dg={"kind": "trivial_extension", "module": {"twists": [0], "rels": [5]}}
    ),
    "module relation inhomogeneous": _job(
        ideal=["x*y"],
        dg={"kind": "trivial_extension", "module": {"twists": [0], "rels": [["x + y^2"]]}},
    ),
    "module relations not a list": _job(
        dg={"kind": "trivial_extension", "module": {"twists": [0], "rels": 5}}
    ),
    "shift not an integer": _job(dg={"kind": "trivial_extension", "shift": None}),
    "ideal not a list": _job(ideal=5),
    "oracle depth not an integer": _job(
        tasks=[{"task": "koszul", "elements": ["x"], "oracle_depth": "a"}]
    ),
    "oracle depth above the bound": _job(
        tasks=[{"task": "koszul", "elements": ["x"], "oracle_depth": MAX_ORACLE_DEPTH + 1}]
    ),
    "negative oracle depth": _job(tasks=[{"task": "koszul", "elements": ["x"], "oracle_depth": -1}]),
    "too many variables": _job(
        vars=[f"x{i}" for i in range(MAX_VARIABLES + 1)],
        tasks=[{"task": "koszul", "elements": ["x0"], "oracle_depth": 0}],
    ),
    "variable not a name": _job(vars=["x", 5]),
    # Both were accepted: "" printed as the unit "1", "x+y" as a sum.
    "empty variable name": _job(vars=["", "y"], ideal=["y^2"], tasks=[{"task": "invariants"}]),
    "variable name not one token": _job(
        vars=["x+y", "z"], ideal=["z^2"], tasks=[{"task": "invariants"}]
    ),
    "field not an object": _job(field=5),
    "sequences not an object": _job(sequences=5, tasks=[{"task": "koszul", "elements": "s"}]),
    "job not an object": [5],
    "check name not text": _job(tasks=[{"task": "check", "name": [5]}]),
    "alternative generators not text": _job(
        tasks=[{"task": "check", "name": "depth_formula", "ideal": ["x"], "alt_gens": [[5]]}]
    ),
    "alternative generators not a list": _job(
        tasks=[{"task": "check", "name": "depth_formula", "ideal": ["x"], "alt_gens": 5}]
    ),
    "alternative generators name an unknown sequence": _job(
        tasks=[{"task": "check", "name": "depth_formula", "ideal": ["x"], "alt_gens": ["s"]}]
    ),
    "source variables not a list": _job(
        tasks=[{"task": "check", "name": "miracle_flatness", "source_vars": True, "images": ["x"]}]
    ),
    "base change target not an object": _job(
        tasks=[{"task": "check", "name": "base_change", "elements": ["x"], "target": 5}]
    ),
    "base change target ideal not a list": _job(
        tasks=[
            {
                "task": "check",
                "name": "base_change",
                "elements": ["x"],
                "target": {"vars": ["x", "y"], "ideal": 5},
                "images": ["x", "y"],
            }
        ]
    ),
    "euler characteristic depth not an integer": _job(
        tasks=[{"task": "check", "name": "euler_characteristic", "elements": ["x"], "depth": "a"}]
    ),
    "euler characteristic depth above the bound": _job(
        tasks=[
            {
                "task": "check",
                "name": "euler_characteristic",
                "elements": ["x"],
                "depth": MAX_EULER_DEPTH + 1,
            }
        ]
    ),
    "base change target in too many variables": _job(
        tasks=[
            {
                "task": "check",
                "name": "base_change",
                "elements": ["x"],
                "target": {"vars": [f"t{i}" for i in range(MAX_VARIABLES + 1)], "ideal": []},
                "images": ["t0", "t1"],
            }
        ]
    ),
    "base change target variable name not one token": _job(
        tasks=[
            {
                "task": "check",
                "name": "base_change",
                "elements": ["x"],
                "target": {"vars": ["u", "v w"], "ideal": []},
                "images": ["u", "u"],
            }
        ]
    ),
    "base change images null": _job(
        tasks=[
            {
                "task": "check",
                "name": "base_change",
                "elements": ["x"],
                "target": {"vars": ["t"], "ideal": []},
                "images": None,
            }
        ]
    ),
    "invariants ideals not an object": _job(tasks=[{"task": "invariants", "ideals": 5}]),
    "invariants ideal not a list": _job(tasks=[{"task": "invariants", "ideals": {"m": 5}}]),
    "invariants witness not a boolean": _job(tasks=[{"task": "invariants", "witness": "no"}]),
    "invariants witness a number": _job(tasks=[{"task": "invariants", "witness": 1}]),
    "invariants witness null": _job(tasks=[{"task": "invariants", "witness": None}]),
    # Both reach the minimal resolution of the zero ring through is_gorenstein_ring.
    "duality on the zero ring": _job(ideal=["1"], tasks=[{"task": "duality"}]),
    "gorenstein transfer on the zero ring": _job(
        ideal=["1"], tasks=[{"task": "check", "name": "gorenstein_transfer", "elements": ["x"]}]
    ),
}


@pytest.mark.parametrize("job", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_job_gives_an_error_status_not_an_exception(job):
    report = run_job(job)
    assert report["status"] in ("input-error", "task-error")
    if report["status"] == "input-error":
        assert report["error"]
    else:
        assert all(r["status"] == "error" for r in report["results"])


def _nested_koszul(levels):
    dg = {"kind": "ring"}
    for _ in range(levels):
        dg = {"kind": "koszul", "base": dg}
    return _job(dg=dg, tasks=[])


def test_a_job_nested_too_deeply_is_an_input_error_before_any_work():
    # The job and its dg are two levels; build_dg would recurse once per
    # Koszul level, past the interpreter's limit at 3000.
    message = f"a job may nest lists and objects at most {MAX_NESTING} levels deep"
    for levels in (MAX_NESTING - 1, 3000):
        report = run_job(_nested_koszul(levels))
        assert (report["status"], report["error"]) == ("input-error", message)
    assert run_job(_nested_koszul(MAX_NESTING - 2))["status"] == "ok"


def test_an_inhomogeneous_module_relation_is_an_input_error():
    report = run_job(MALFORMED["module relation inhomogeneous"])
    assert (report["status"], report["error"]) == ("input-error", "inhomogeneous column")
    assert _report_exit(report) == EXIT_INPUT_ERROR


def _degree_job(degree, kind):
    """A job over k[x,y]/(xy) whose DG ring declares the given degree, as
    the degree of a zero Koszul element or as a module twist."""
    if kind == "koszul":
        dg = {"kind": "koszul", "elements": ["0", "x"], "degrees": [degree, 1]}
    else:
        module = {"twists": [0, degree], "rels": [["x", "0"], ["0", "x"]]}
        dg = {"kind": "trivial_extension", "module": module}
    tasks = [
        {"task": "koszul", "elements": ["x"], "oracle_depth": 0},
        {"task": "invariants"},
        {"task": "duality", "elements": ["x"]},
        {"task": "check", "name": "gorenstein_transfer", "elements": ["x"]},
    ]
    return _job(ideal=["x*y"], dg=dg, tasks=tasks)


@pytest.mark.parametrize("kind", ["koszul", "trivial_extension"])
def test_declared_degrees_are_bounded(kind):
    # A degree becomes a Hilbert-series exponent, so the work grows with
    # it: just past the bound is an input error, and at the bound every
    # task ends, if only at the degree cap, well within a second.
    for degree in (-MAX_DEGREE - 1, MAX_DEGREE + 1):
        report = run_job(_degree_job(degree, kind))
        assert report["status"] == "input-error"
        assert f"from -{MAX_DEGREE} to {MAX_DEGREE}" in report["error"]
    for degree in (-MAX_DEGREE, MAX_DEGREE):
        start = time.monotonic()
        assert run_job(_degree_job(degree, kind))["status"] in ("ok", "task-error", "resource-cap")
        assert time.monotonic() - start < 1.0


def test_null_task_elements_mean_none():
    report = run_job(_job(tasks=[{"task": "koszul", "elements": None, "oracle_depth": 0}]))
    assert report["status"] == "ok"


def test_null_alternative_generators_mean_none():
    job = json.loads((SUITE / "a06_depth_formula.json").read_text(encoding="utf-8"))
    job["tasks"][0]["alt_gens"] = None
    report = run_job(job)
    assert report["status"] == "ok"
    assert report["results"][0]["result"]["alternative_generating_sets"] == []


def test_koszul_job_in_the_most_variables_stays_within_budget():
    job = _job(
        vars=[f"x{i}" for i in range(MAX_VARIABLES)],
        tasks=[{"task": "koszul", "elements": ["x0"], "oracle_depth": 0}],
    )
    start = time.monotonic()
    assert run_job(job)["status"] == "ok"
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize(
    "field", [{"kind": "prime", "p": 32003}, {"kind": "rationals"}], ids=["F_32003", "Q"]
)
def test_deepest_oracle_on_the_quadric_cone_stays_within_budget(field):
    # Koszul on all variables of k[x,y,z,w]/(xy - zw) at the deepest
    # admissible oracle depth: the whole job takes 0.2 s over F_32003 and
    # 0.7 s over Q on a 2-vCPU Xeon.
    variables = ["x", "y", "z", "w"]
    job = {
        "field": field,
        "vars": variables,
        "ideal": ["x*y - z*w"],
        "tasks": [{"task": "koszul", "elements": variables, "oracle_depth": MAX_ORACLE_DEPTH}],
    }
    start = time.monotonic()
    report = run_job(job)
    elapsed = time.monotonic() - start
    assert report["status"] == "ok"
    assert report["results"][0]["result"]["oracle"]["agrees"] is True
    assert elapsed < 5.0


def test_oracle_above_the_basis_bound_is_a_task_error_before_any_work():
    # Koszul on all variables of k[x0..x5]/(x0x1 - x2x3) to depth 12 would
    # build up to 369,305 oracle basis vectors (2.2 s of oracle work unbounded).
    variables = [f"x{i}" for i in range(6)]
    job = {
        "field": {"kind": "prime", "p": 32003},
        "vars": variables,
        "ideal": ["x0*x1 - x2*x3"],
        "tasks": [{"task": "koszul", "elements": variables, "oracle_depth": 12}],
    }
    start = time.monotonic()
    report = run_job(job)
    elapsed = time.monotonic() - start
    record = report["results"][0]
    assert record["status"] == "error"
    assert f"369305 basis vectors, above the bound {MAX_ORACLE_BASIS}" in record["error"]
    assert report["status"] == "task-error"
    assert elapsed < 1.0


def test_koszul_task_above_the_rank_bound_is_a_task_error_before_any_work():
    # Koszul on 12 copies of x over k[x,y] has 2^12 = 4096 generators; the
    # task took 24 s unbounded on a 2-vCPU Xeon.
    job = _job(tasks=[{"task": "koszul", "elements": ["x"] * 12, "oracle_depth": 0}])
    start = time.monotonic()
    report = run_job(job)
    elapsed = time.monotonic() - start
    record = report["results"][0]
    assert record["status"] == "error"
    assert f"4096 generators, above the bound {MAX_COMPLEX_RANK}" in record["error"]
    assert report["status"] == "task-error"
    assert elapsed < 1.0


SIX_ELEMENTS = {"kind": "koszul", "elements": ["x", "y"] * 3}  # 2^6 = 64 generators


@pytest.mark.parametrize(
    "dg",
    [
        {"kind": "koszul", "base": SIX_ELEMENTS, "elements": ["x", "y"] * 3},
        {"kind": "tensor", "left": SIX_ELEMENTS, "right": SIX_ELEMENTS},
    ],
    ids=["nested-koszul", "tensor"],
)
def test_dg_spec_above_the_rank_bound_is_an_input_error_before_any_work(dg):
    # 64 * 64 = 4096 generators.
    start = time.monotonic()
    report = run_job(_job(dg=dg))
    elapsed = time.monotonic() - start
    assert report["status"] == "input-error"
    assert f"4096 generators, above the bound {MAX_COMPLEX_RANK}" in report["error"]
    assert elapsed < 1.0


# Small fixtures that between them reach every task kind, a trivial
# extension, alternative generators and a base-change target.
FUZZ_FIXTURES = {
    name: json.loads((SUITE / name).read_text(encoding="utf-8"))
    for name in (
        "a03_base_change.json",
        "a06_depth_formula.json",
        "a07_duality_negative_control.json",
        "a10_miracle_flatness.json",
        "a11_oracle_trivial_extension.json",
    )
}
FUZZ_VALUES = [5, "a", [], {}, None, [5], -1, True, 2.5]


def _field_paths(node, prefix=()):
    """The key path of every dict entry and list item under node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_mutated_field_gives_a_report_not_an_exception(data):
    name = data.draw(st.sampled_from(sorted(FUZZ_FIXTURES)))
    job = json.loads(json.dumps(FUZZ_FIXTURES[name]))
    path = data.draw(st.sampled_from(list(_field_paths(job))))
    node = job
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(FUZZ_VALUES))
    report = run_job(job)
    assert report["status"] in ("ok", "input-error", "task-error", "resource-cap")
