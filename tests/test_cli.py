from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from dgkoszul.jobs import MAX_NESTING

SUITE_DIR = os.path.join(os.path.dirname(__file__), "..", "suite")


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "dgkoszul.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job))
    return str(path)


BASIC_JOB = {
    "schema": 1,
    "field": {"kind": "prime", "p": 32003},
    "vars": ["x", "y"],
    "ideal": ["x*y"],
    "dg": {"kind": "koszul", "base": {"kind": "ring"}, "elements": ["x"]},
    "tasks": [{"task": "invariants"}],
}


def test_compute_reports_invariants(tmp_path):
    path = write_job(tmp_path, BASIC_JOB)
    result = run_cli("compute", path)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    inv = report["results"][0]["result"]
    assert inv["inf"] == -1
    assert inv["local_cm"] is True
    assert inv["homology"]["0"]["pole_order"] == 1


def test_compute_is_byte_deterministic(tmp_path):
    path = write_job(tmp_path, BASIC_JOB)
    first = run_cli("compute", path)
    second = run_cli("compute", path)
    assert first.stdout == second.stdout


def test_check_verb_and_exit_codes(tmp_path):
    job = {
        "schema": 1,
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x", "y", "z"],
        "ideal": [],
        "dg": {"kind": "ring"},
        "check_args": {"elements": ["x", "y", "x"]},
    }
    path = write_job(tmp_path, job)
    result = run_cli("check", "amp_koszul", path)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    record = report["results"][0]["result"]
    assert record["verdict"] == "PASS"
    assert record["amp_direct"] == 1 and record["amp_formula"] == 1


def test_check_negative_control_exit_code(tmp_path):
    job = {
        "schema": 1,
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x", "y"],
        "ideal": ["x^2", "x*y"],
        "dg": {"kind": "ring"},
        "check_args": {"elements": ["y"]},
    }
    path = write_job(tmp_path, job)
    unexpected = run_cli("check", "amp_koszul", path)
    assert unexpected.returncode == 1  # HYPOTHESIS-NOT-MET without --expect
    expected = run_cli("check", "amp_koszul", path, "--expect", "HYPOTHESIS-NOT-MET")
    assert expected.returncode == 0


def test_input_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = run_cli("compute", str(path))
    assert result.returncode == 2


def test_unknown_variable_is_input_error(tmp_path):
    job = dict(BASIC_JOB, ideal=["q*y"])
    path = write_job(tmp_path, job)
    result = run_cli("compute", path)
    assert result.returncode == 2
    report = json.loads(result.stdout)
    assert report["status"] == "input-error"


@pytest.mark.parametrize("variables, ideal", [(["", "y"], ["y^2"]), (["x+y", "z"], ["z^2"])])
def test_a_variable_name_the_parser_cannot_read_is_a_one_line_input_error(
    tmp_path, variables, ideal
):
    job = dict(BASIC_JOB, vars=variables, ideal=ideal, dg={"kind": "ring"})
    result = run_cli("compute", write_job(tmp_path, job))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"input error: variable name {variables[0]!r} must be a letter or '_' "
        "then letters, digits or '_'"
    ]


def test_degree_cap_diagnostic_exit_code(tmp_path):
    job = {
        "schema": 1,
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x", "y", "z"],
        "ideal": ["x^5 - y^4*z", "x^2*y^3 - z^5"],
        "dg": {"kind": "ring"},
        "tasks": [{"task": "koszul", "elements": ["x"]}],
    }
    path = write_job(tmp_path, job)
    result = run_cli("compute", path, "--degree-cap", "4")
    assert result.returncode == 3
    report = json.loads(result.stdout)
    assert report["results"][0]["status"] == "resource-cap"



def test_degree_cap_hit_while_building_the_dg_ring(tmp_path):
    # The trivial extension minimizes its module before any task runs.
    fixture = os.path.join(SUITE_DIR, "a11_oracle_trivial_extension.json")
    result = run_cli("compute", fixture, "--degree-cap", "0")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    report = json.loads(result.stdout)
    assert report["status"] == "resource-cap"
    assert report["error"] == "S-pair of degree 2 exceeds the configured cap 0"
    (tmp_path / "a11.json").write_text(open(fixture, encoding="utf-8").read())
    result = run_cli("suite", str(tmp_path), "--degree-cap", "0")
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr

def test_task_isolation_on_injected_failure(tmp_path):
    job = {
        "schema": 1,
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "dg": {"kind": "ring"},
        "tasks": [
            {"task": "check", "name": "no_such_check"},
            {"task": "invariants"},
        ],
    }
    path = write_job(tmp_path, job)
    result = run_cli("compute", path)
    report = json.loads(result.stdout)
    assert report["results"][0]["status"] == "error"
    assert report["results"][1]["status"] == "ok"
    assert report["results"][1]["result"]["local_cm"] is True


def test_empty_task_list_reports_echo_only(tmp_path):
    job = dict(BASIC_JOB, tasks=[])
    path = write_job(tmp_path, job)
    result = run_cli("compute", path)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["results"] == []
    assert report["job"]["vars"] == ["x", "y"]


def test_suite_runs_shipped_corpus():
    result = run_cli("suite", SUITE_DIR)
    assert result.returncode == 0, result.stderr
    aggregate = json.loads(result.stdout)
    assert aggregate["all_passed"] is True
    assert len(aggregate["fixtures"]) >= 25


def test_suite_empty_directory(tmp_path):
    result = run_cli("suite", str(tmp_path))
    assert result.returncode == 0
    assert json.loads(result.stdout)["fixtures"] == []


def test_suite_isolates_corrupted_fixture(tmp_path):
    good = {
        "schema": 1,
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x"],
        "ideal": [],
        "dg": {"kind": "ring"},
        "tasks": [{"task": "invariants", "expect": {"amp": 0}}],
    }
    write_job(tmp_path, good, "good.json")
    (tmp_path / "broken.json").write_text("{")
    result = run_cli("suite", str(tmp_path))
    assert result.returncode == 2
    aggregate = json.loads(result.stdout)
    assert [e["fixture"] for e in aggregate["missing"]] == ["broken.json"]
    assert aggregate["fixtures"][0]["expectations_met"] is True


def test_suite_exits_2_on_a_malformed_job_like_compute(tmp_path):
    # A job that never runs, and one whose task kind is unknown.
    jobs = {"input-error": {"vars": [], "tasks": []}}
    jobs["task-error"] = {**BASIC_JOB, "tasks": [{"task": "nonsense"}]}
    for status, job in jobs.items():
        path = write_job(tmp_path, job, "malformed.json")
        assert run_cli("compute", path).returncode == 2
        result = run_cli("suite", str(tmp_path))
        assert result.returncode == 2, result.stderr
        assert json.loads(result.stdout)["fixtures"][0]["status"] == status
    # A resource-cap fixture beside it keeps exit 3.
    fixture = os.path.join(SUITE_DIR, "a11_oracle_trivial_extension.json")
    (tmp_path / "a11.json").write_text(open(fixture, encoding="utf-8").read())
    assert run_cli("suite", str(tmp_path), "--degree-cap", "0").returncode == 3


def test_field_flag_applies_when_job_omits_field(tmp_path):
    job = {k: v for k, v in BASIC_JOB.items() if k != "field"}
    path = write_job(tmp_path, job)
    result = run_cli("compute", path, "--field", "rationals")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["job"]["field"] == {"kind": "rationals"}


def test_prime_above_int64_safe_bound_is_an_input_error(tmp_path):
    job = dict(BASIC_JOB)
    del job["field"]
    path = write_job(tmp_path, job)
    result = run_cli("compute", path, "--field", "prime:4294967291")
    assert result.returncode == 2
    assert json.loads(result.stdout)["status"] == "input-error"


@pytest.mark.parametrize("flag", ["prime:abc", "prime:"])
def test_malformed_field_flag_is_a_one_line_input_error(tmp_path, flag):
    job = {k: v for k, v in BASIC_JOB.items() if k != "field"}
    path = write_job(tmp_path, job)
    result = run_cli("compute", path, "--field", flag)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"input error: cannot parse field flag {flag!r}"]


@pytest.mark.parametrize(
    "flag, value", [("--degree-cap", "-1"), ("--budget", "-3"), ("--oracle-depth", "-1")]
)
def test_negative_size_flag_is_an_input_error(tmp_path, flag, value):
    path = write_job(tmp_path, BASIC_JOB)
    result = run_cli("compute", path, flag, value)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].endswith(
        f"argument {flag}: expected an integer >= 0, got {value!r}"
    )


@pytest.mark.parametrize(
    "flag, code, status",
    [("--degree-cap", 3, "resource-cap"), ("--budget", 0, "ok"), ("--oracle-depth", 0, "ok")],
)
def test_zero_size_flag_is_accepted(tmp_path, flag, code, status):
    path = write_job(tmp_path, BASIC_JOB)
    result = run_cli("compute", path, flag, "0")
    assert result.returncode == code, result.stderr
    assert json.loads(result.stdout)["status"] == status


@pytest.mark.parametrize(
    "job, argv, message",
    [
        ([1, 2], ("compute", "JOB", "--field", "7"), "a job must be a JSON object"),
        ([1], ("check", "amp_koszul", "JOB"), "a job must be a JSON object"),
        (
            dict(BASIC_JOB, check_args=[5]),
            ("check", "amp_koszul", "JOB"),
            "'check_args' must be a JSON object",
        ),
        # check_args may not replace the check that the verb names.
        (
            dict(BASIC_JOB, check_args={"name": "lift_independence"}),
            ("check", "amp_koszul", "JOB"),
            "'check_args' must not set 'name': the verb names the check",
        ),
        (
            dict(BASIC_JOB, check_args={"task": "invariants"}),
            ("check", "amp_koszul", "JOB"),
            "'check_args' must not set 'task': the verb names the check",
        ),
    ],
)
def test_malformed_job_file_is_a_one_line_input_error(tmp_path, job, argv, message):
    path = write_job(tmp_path, job)
    result = run_cli(*(path if arg == "JOB" else arg for arg in argv))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"input error: {message}"]


@pytest.mark.parametrize(
    "dg, message",
    [
        (
            {"kind": "koszul", "elements": ["0", "x"], "degrees": [-10**12, 1]},
            "koszul 'degrees' must list one integer from -1000 to 1000 per element",
        ),
        (
            {
                "kind": "trivial_extension",
                "module": {"twists": [0, -10**12], "rels": [["x", "0"], ["0", "x"]]},
            },
            "module 'twists' must list integers from -1000 to 1000",
        ),
    ],
    ids=["koszul degree", "module twist"],
)
@pytest.mark.parametrize("argv", [("compute",), ("check", "gorenstein_transfer")])
def test_a_job_that_never_runs_gives_one_input_error_line(tmp_path, dg, message, argv):
    # Both degrees would become Hilbert-series exponents of size 10^12.
    job = dict(BASIC_JOB, dg=dg)
    if argv[0] == "check":
        job["check_args"] = {"elements": ["x"]}
    result = run_cli(*argv, write_job(tmp_path, job), timeout=60)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [f"input error: {message}"]
    assert json.loads(result.stdout)["status"] == "input-error"


def _nested_job_text(levels):
    """BASIC_JOB's text with no tasks, its dg a Koszul construction on no
    elements nested the given number of levels deep (built as text, since
    json's own encoder recurses)."""
    dg = '{"kind": "ring"}'
    for _ in range(levels):
        dg = '{"kind": "koszul", "base": ' + dg + "}"
    job = json.dumps(dict(BASIC_JOB, tasks=[], dg=None))
    return job.replace('"dg": null', '"dg": ' + dg)


NESTED = {
    # The job, its dg and 99 Koszul levels: 101 levels of objects.
    99: f"a job may nest lists and objects at most {MAX_NESTING} levels deep",
    # Too deep for json to decode at all.
    990: "the job nests too deeply to decode",
}


@pytest.mark.parametrize("levels", NESTED)
@pytest.mark.parametrize("argv", [("compute",), ("check", "amp_koszul")])
def test_a_job_nested_too_deeply_is_a_one_line_input_error(tmp_path, levels, argv):
    path = tmp_path / "deep.json"
    path.write_text(_nested_job_text(levels))
    result = run_cli(*argv, str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [f"input error: {NESTED[levels]}"]


def test_suite_lists_a_job_nested_too_deeply_as_unreadable(tmp_path):
    for levels in NESTED:
        (tmp_path / f"deep{levels}.json").write_text(_nested_job_text(levels))
    write_job(tmp_path, dict(BASIC_JOB, tasks=[]), "good.json")
    result = run_cli("suite", str(tmp_path))
    assert result.returncode == 2, result.stderr
    aggregate = json.loads(result.stdout)
    assert [(e["fixture"], e["status"], e["error"]) for e in aggregate["missing"]] == [
        (f"deep{levels}.json", "unreadable", message) for levels, message in NESTED.items()
    ]
    assert [e["status"] for e in aggregate["fixtures"]] == ["ok"]
