"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every comparison below is equality; the only
tolerances are the per-criterion wall-clock budgets, which are asserted
as stated.  Each test prints one PASS line (visible with pytest -s); a
failed assertion is the FAIL line.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from conftest import poly, ring
from dgkoszul import (
    FPModule,
    canonical_json,
    dg_from_ring,
    dg_tensor,
    dualizing_complex,
    dualizing_of_koszul,
    euler_series,
    gorenstein_dg_check,
    koszul,
    lift_independence_check,
    run_suite,
    self_duality_check,
    trivial_extension,
    truncation_oracle,
)
from dgkoszul.complexes import homology_hilbert_functions
from dgkoszul.checks import run_check
from dgkoszul.jobs import RunConfig

SUITE_DIR = os.path.join(os.path.dirname(__file__), "..", "suite")
CONFIG = RunConfig()


@contextmanager
def budget(name: str, seconds: float):
    started = time.monotonic()
    yield
    elapsed = time.monotonic() - started
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget: {elapsed:.2f}s"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s < {seconds}s)")


def _cm_fixtures():
    return {
        "polynomial": ring("x", "y", "z"),
        "hypersurface": ring("x", "y", ideal=["x*y"]),
        "quadric": ring("x", "y", "z", "w", ideal=["x*y - z*w"]),
    }


def test_criterion_01_regular_sequence_collapse():
    with budget("1 regular-sequence collapse", 1.0):
        Q = ring("x", "y", "z")
        A = dg_from_ring(Q)
        K_full = koszul(A, ["x", "y", "z"])
        assert K_full.amp() == 0
        assert K_full.homology(0).hilbert_series().reduced() == ({0: 1}, 0)
        K_two = koszul(A, ["x", "y"])
        assert K_two.amp() == 0
        # H^0 = k[z]
        assert K_two.homology(0).hilbert_series().reduced() == ({0: 1}, 1)


def test_criterion_02_self_duality():
    with budget("2a self-duality K(k[x,y]/(xy); x,y)", 1.0):
        K = koszul(dg_from_ring(ring("x", "y", ideal=["x*y"])), ["x", "y"])
        rep = self_duality_check(K)
        assert rep["pass"] and all(rep["squares"].values())
    with budget("2b self-duality K(k[x,y,z]; x+y,z)", 1.0):
        K = koszul(dg_from_ring(ring("x", "y", "z")), ["x+y", "z"])
        rep = self_duality_check(K)
        assert rep["pass"] and all(rep["squares"].values())


def test_criterion_03_composition_and_lift_independence():
    with budget("3 composition + lift-independence on >= 4 fixtures", 5.0):
        composition_fixtures = [
            (ring("x", "y", "z"), ["x"], ["y"]),
            (ring("x", "y", ideal=["x*y"]), ["x"], ["y"]),
            (ring("x", "y", "z", "w", ideal=["x*y - z*w"]), ["x"], ["z"]),
        ]
        for Q, first, second in composition_fixtures:
            A = dg_from_ring(Q)
            flat = koszul(A, first + second)
            iterated = koszul(koszul(A, first), second)
            tensored = dg_tensor(koszul(A, first), koszul(A, second))
            t = flat.homology_table()
            for other in (
                iterated.homology_table(),
                tensored.homology_table(),
                iterated.underlying.homology_table(),
            ):
                assert set(t) == set(other)
                for i in t:
                    assert t[i] == other[i]
        lift_fixtures = [
            (koszul(dg_from_ring(ring("x", "y")), ["x"]), ["y^2"], ["y^2 + x*y"]),
            (dg_from_ring(ring("x", "y", ideal=["x^2 - x*y"])), ["x^2"], ["x*y"]),
        ]
        for A, elems, alts in lift_fixtures:
            assert lift_independence_check(A, elems, alts)["equal"]


AMP_SEQUENCES = [
    ("polynomial", ["x", "y", "x"], 1),
    ("polynomial", ["x", "y", "z"], 0),
    ("polynomial", ["x", "x"], 1),
    ("hypersurface", ["x"], 1),
    ("hypersurface", ["x", "y"], 1),
    ("hypersurface", ["x+y"], 0),
    ("quadric", ["x", "z"], 1),
    ("quadric", ["x", "y"], 0),
]


def test_criterion_04_amp_formula():
    with budget("4 amplitude formula on CM fixtures + negative control", 10.0):
        rings = _cm_fixtures()
        assert len(AMP_SEQUENCES) >= 6
        for name, elements, expected_amp in AMP_SEQUENCES:
            A = dg_from_ring(rings[name])
            record = run_check("amp_koszul", A, {"elements": elements}, CONFIG)
            assert record["verdict"] == "PASS", (name, elements, record)
            assert record["amp_direct"] == record["amp_formula"] == expected_amp
        control = dg_from_ring(ring("x", "y", ideal=["x^2", "x*y"]))
        record = run_check("amp_koszul", control, {"elements": ["y"]}, CONFIG)
        assert record["verdict"] == "HYPOTHESIS-NOT-MET"
        assert record["amp_direct"] == 1 and record["amp_formula"] == 0


SEQ_DEPTH_IDEALS = [
    ("polynomial", ["x", "y"], 2),
    ("polynomial", ["x"], 1),
    ("polynomial", ["x", "y", "z"], 3),
    ("hypersurface", ["x", "y"], 1),
    ("hypersurface", ["x"], 0),
    ("quadric", ["x", "z"], 1),
]


def test_criterion_05_sequential_depth_formula():
    with budget("5 sequential-depth formula on >= 6 ideals", 10.0):
        rings = _cm_fixtures()
        assert len(SEQ_DEPTH_IDEALS) >= 6
        for name, ideal, expected in SEQ_DEPTH_IDEALS:
            A = dg_from_ring(rings[name])
            record = run_check("seq_depth", A, {"ideal": ideal}, CONFIG)
            assert record["verdict"] == "PASS", (name, ideal, record)
            assert record["seq_depth"] == expected
            witness = record["witness"]
            if not witness["exhausted"]:
                assert len(witness["elements"]) == expected


def test_criterion_06_depth_coherence():
    with budget("6 depth coherence, 3 ideals x 2 generating sets", 10.0):
        cases = [
            (ring("x", "y", "z"), ["x", "y"], [["x", "x + y", "y"]]),
            (ring("x", "y", ideal=["x*y"]), ["x", "y"], [["x + y", "y"]]),
            (
                ring("x", "y", "z", "w", ideal=["x*y - z*w"]),
                ["x", "z"],
                [["x + z", "z"]],
            ),
        ]
        for Q, ideal, alts in cases:
            A = dg_from_ring(Q)
            record = run_check(
                "depth_formula", A, {"ideal": ideal, "alt_gens": alts}, CONFIG
            )
            assert record["verdict"] == "PASS", (ideal, record)
            assert record["depth"] == record["seq_depth"] + record["inf"]


def test_criterion_07_dualizing_amplitude_criterion():
    with budget("7 amp(K) == amp(D) and the non-CM detector", 30.0):
        for name, elements, _amp in AMP_SEQUENCES:
            Q = _cm_fixtures()[name]
            K = koszul(dg_from_ring(Q), elements)
            D = dualizing_of_koszul(K)
            assert D.amp() == K.amp(), (name, elements)
        control = ring("x", "y", ideal=["x^2", "x*y"])
        assert dualizing_complex(control).amp() == 1


def test_criterion_08_counterexample():
    with budget("8 local-CM without constant amplitude counterexample", 5.0):
        A = dg_from_ring(ring("x", "y", ideal=["x*y"]))
        record = run_check("counterexample_4_5", A, {}, CONFIG)
        assert record["verdict"] == "PASS"
        assert record["extension_local_cm"] is True
        assert record["extension_constant_amplitude"] is False
        assert record["witness"]["elements"]  # found inside (y)
        assert record["koszul_seq_depth"] == 0
        assert record["koszul_dim_h0"] == 1
        assert record["koszul_cm_certified"] == "false"
        assert record["h_minus_one_discrepancy"] is True
        assert record["oracle_agrees"] is True
        assert "discrepancy_note" in record


def test_criterion_09_gorenstein_transfer():
    with budget("9 Gorenstein transfer, both directions", 30.0):
        Qxy = ring("x", "y", ideal=["x*y"])
        for elements in (["x"], ["y"], ["x + y"]):
            rep = gorenstein_dg_check(koszul(dg_from_ring(Qxy), elements))
            assert rep["verdict"] == "true", elements
        Qhyp = ring("x", "y", "z", ideal=["x^2 - y*z"])
        for elements in (["y"], ["z"], ["x"]):
            rep = gorenstein_dg_check(koszul(dg_from_ring(Qhyp), elements))
            assert rep["verdict"] == "true", elements
        Qt2 = ring("x", "y", "z", ideal=["x^2", "x*y", "y^2"])
        rep = gorenstein_dg_check(koszul(dg_from_ring(Qt2), ["z"]))
        assert rep["verdict"] == "false"


def test_criterion_10_miracle_flatness():
    with budget("10 miracle flatness and the freeness criterion", 5.0):
        B = dg_from_ring(ring("u", "v", ideal=["u*v"]))
        rec = run_check(
            "miracle_flatness", B, {"source_vars": ["t"], "images": ["u+v"]}, CONFIG
        )
        assert rec["verdict"] == "PASS" and rec["flatdim"] == 0 and rec["rhs"] == 0
        Bx = dg_from_ring(ring("x"))
        rec = run_check(
            "miracle_flatness", Bx, {"source_vars": ["t"], "images": ["0"]}, CONFIG
        )
        assert rec["verdict"] == "PASS" and rec["flatdim"] == 1 and rec["rhs"] == 1
        Bfree = dg_from_ring(ring("x", "y", ideal=["y^2"]))
        rec = run_check(
            "dgreg", Bfree, {"source_vars": ["t"], "images": ["x"]}, CONFIG
        )
        assert rec["verdict"] == "PASS"
        assert rec["flatdim"] == 0 == rec["amp_target"]
        assert rec["cm_certified"] == "true"
        Bnon = dg_from_ring(ring("x", "y", ideal=["y^2", "x*y"]))
        rec = run_check(
            "dgreg", Bnon, {"source_vars": ["t"], "images": ["x"]}, CONFIG
        )
        assert rec["verdict"] == "PASS"
        assert rec["flatdim"] == 1 != rec["amp_target"]
        assert rec["cm_certified"] == "false"


ORACLE_FIXTURES = [
    (("x", "y"), (), ["x", "y"]),
    (("x", "y"), ("x*y",), ["x"]),
    (("x", "y"), ("x*y",), ["x", "y"]),
    (("x", "y"), ("x^2", "x*y"), ["y"]),
    (("x", "y", "z"), (), ["x", "y", "x"]),
    (("x", "y", "z", "w"), ("x*y - z*w",), ["x", "z"]),
]


def test_criterion_11_oracle_agreement_and_euler():
    with budget("11 oracle agreement (deg <= 8) and Euler identity (deg <= 10)", 60.0):
        for variables, ideal, elements in ORACLE_FIXTURES:
            Q = ring(*variables, ideal=ideal)
            K = koszul(dg_from_ring(Q), elements)
            assert truncation_oracle(K.underlying, 8) == homology_hilbert_functions(
                K.underlying, 8
            ), (variables, ideal, elements)
            lhs = euler_series(K.underlying)
            rhs = Q.hilbert_series()
            for t in elements:
                d = poly(t, Q).homogeneous_degree()
                rhs = rhs - rhs.shift(d)
            assert lhs == rhs
            assert lhs.coefficients(10) == rhs.coefficients(10)
        # the trivial-extension fixture, through the DG layer
        B = ring("x", "y", ideal=["x*y"])
        ext = trivial_extension(
            B, FPModule.quotient_by_ideal(B, [poly("x", B)]), 2
        )
        K = koszul(ext, ["y"])
        assert truncation_oracle(K.underlying, 8) == homology_hilbert_functions(
            K.underlying, 8
        )


def test_criterion_12_determinism_and_runtime():
    with budget("12 byte-identical suite reports, full run", 300.0):
        paths = sorted(
            os.path.join(SUITE_DIR, name)
            for name in os.listdir(SUITE_DIR)
            if name.endswith(".json")
        )
        first = canonical_json(run_suite(paths, RunConfig()))
        second = canonical_json(run_suite(paths, RunConfig()))
        assert first == second
        aggregate = json.loads(first)
        assert aggregate["all_passed"] is True
        assert len(aggregate["fixtures"]) == len(paths)
