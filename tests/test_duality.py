from __future__ import annotations

import json
from pathlib import Path

import pytest

from conftest import poly, ring
from dgkoszul import (
    FPModule,
    betti_numbers,
    dg_from_ring,
    dg_tensor,
    dualizing_complex,
    dualizing_of_koszul,
    free_resolution,
    gorenstein_dg_check,
    is_gorenstein_ring,
    koszul,
    self_duality_check,
    trivial_extension,
)
from dgkoszul import complexes, run_job
from dgkoszul.checks import CheckInputError, run_check
from dgkoszul.jobs import RunConfig

SUITE = Path(__file__).resolve().parent.parent / "suite"


def test_betti_numbers_of_residue_field():
    Q = ring("x", "y")
    k_mod = FPModule.quotient_by_ideal(Q, [poly("x", Q), poly("y", Q)])
    assert betti_numbers(free_resolution(k_mod)) == [1, 2, 1]


def test_betti_numbers_of_hypersurface():
    Q = ring("x", "y", ideal=["x*y"])
    assert betti_numbers(free_resolution(FPModule(Q, (0,)))) == [1, 1]


def test_betti_numbers_of_socle_ring():
    Q = ring("x", "y", ideal=["x^2", "x*y"])
    res = free_resolution(FPModule(Q, (0,)))
    assert betti_numbers(res) == [1, 2, 1]
    # the single second syzygy is (y, -x) in the twisted basis
    assert -min(res.terms) == 2


def test_resolution_is_exact_and_minimal():
    fixtures = [
        ring("x", "y", ideal=["x*y"]),
        ring("x", "y", ideal=["x^2", "x*y"]),
        ring("x", "y", "z", ideal=["x^2", "x*y", "y^2"]),
        ring("x", "y", "z", "w", ideal=["x*y - z*w"]),
    ]
    for Q in fixtures:
        res = free_resolution(FPModule(Q, (0,)))
        res.validate()
        assert -min(res.terms) <= Q.poly_ring.nvars
        # H^0 = the module, all other homology vanishes
        assert res.homology(0).hilbert_series() == Q.hilbert_series()
        for i in res.support:
            if i != 0:
                assert res.homology(i).hilbert_series().is_zero()
        # minimal: no column has a constant term
        constant = (0,) * Q.poly_ring.nvars
        for m in res.diffs.values():
            assert all(e != constant for col in m for _, e in col)


def test_dualizing_complex_of_regular_ring():
    R = dualizing_complex(ring("x", "y", "z"))
    assert R.amp() == 0
    assert R.inf() == -3


def test_dualizing_complex_of_gorenstein_hypersurface():
    Q = ring("x", "y", ideal=["x*y"])
    R = dualizing_complex(Q)
    assert R.amp() == 0 and R.inf() == -1
    top = R.homology(-1).minimize()
    assert top.rank == 1  # cyclic


def test_dualizing_complex_detects_non_cm():
    R = dualizing_complex(ring("x", "y", ideal=["x^2", "x*y"]))
    assert R.amp() == 1
    assert R.inf() == -1


def test_dualizing_amp_lower_bound():
    for Q in (
        ring("x", "y"),
        ring("x", "y", ideal=["x*y"]),
        ring("x", "y", ideal=["x^2", "x*y"]),
        ring("x", "y", "z", ideal=["x^2", "x*y", "y^2"]),
    ):
        assert dualizing_complex(Q).amp() >= 0


def test_gorenstein_ring_classification():
    assert is_gorenstein_ring(ring("x", "y", ideal=["x*y"]))[0]
    assert not is_gorenstein_ring(ring("x", "y", ideal=["x^2", "x*y"]))[0]
    gor, data = is_gorenstein_ring(ring("x", "y", "z", ideal=["x^2", "x*y", "y^2"]))
    assert not gor
    assert data["cohen_macaulay"] and not data["type_one"]
    assert data["betti"] == [1, 3, 2]
    assert is_gorenstein_ring(ring("x", "y", "z", ideal=["x^2 - y*z"]))[0]
    assert is_gorenstein_ring(ring("x", "y"))[0]


@pytest.mark.parametrize(
    "variables,ideal,elements",
    [
        (("x",), (), ["x"]),
        (("x", "y"), ("x*y",), ["x", "y"]),
        (("x", "y", "z"), (), ["x+y", "z"]),
        (("x", "y", "z"), (), ["x", "y", "z"]),
        (("x", "y", "z", "w"), ("x*y - z*w",), ["x", "z"]),
    ],
)
def test_self_duality_isomorphism(variables, ideal, elements):
    Q = ring(*variables, ideal=ideal)
    K = koszul(dg_from_ring(Q), elements)
    rep = self_duality_check(K)
    assert rep["pass"]
    assert all(rep["squares"].values())


def test_self_duality_empty_sequence():
    A = dg_from_ring(ring("x"))
    assert self_duality_check(A)["pass"]


def test_amp_of_dual_matches_on_cm_fixtures():
    fixtures = [
        (ring("x", "y", "z"), ["x", "y", "x"]),
        (ring("x", "y", ideal=["x*y"]), ["x"]),
        (ring("x", "y", ideal=["x*y"]), ["x", "y"]),
        (ring("x", "y", "z", "w", ideal=["x*y - z*w"]), ["x", "z"]),
    ]
    for Q, elements in fixtures:
        K = koszul(dg_from_ring(Q), elements)
        D = dualizing_of_koszul(K)
        assert D.amp() == K.amp()


def test_sup_and_inf_of_koszul_tensor_dualizing():
    # sup(K (x) R) = amp(A) - dim(H0 A); inf(K (x) R) = -dim(H0/I) - n,
    # where Tot(K (x) R) is the dualizing DG-module shifted back by n
    fixtures = [
        (ring("x", "y", ideal=["x*y"]), ["x"]),
        (ring("x", "y", "z"), ["x + y"]),
        (ring("x", "y", "z", "w", ideal=["x*y - z*w"]), ["x", "z"]),
    ]
    for Q, elements in fixtures:
        A = dg_from_ring(Q)
        K = koszul(A, elements)
        KR = dualizing_of_koszul(K).shift(len(elements))
        assert KR.sup() == 0 - Q.dim()
        from dgkoszul.rings import QuotientRing

        quotient = QuotientRing(
            Q.poly_ring, Q.j_gens + tuple(poly(t, Q) for t in elements)
        )
        assert KR.inf() == -quotient.dim() - len(elements)


def test_gorenstein_transfer_positive_and_negative():
    Qxy = ring("x", "y", ideal=["x*y"])
    for elements in (["x"], ["x", "y"], ["x + y"]):
        assert gorenstein_dg_check(koszul(dg_from_ring(Qxy), elements))["verdict"] == "true"
    Qhyp = ring("x", "y", "z", ideal=["x^2 - y*z"])
    for elements in (["y"], ["y", "z"], ["x"]):
        assert gorenstein_dg_check(koszul(dg_from_ring(Qhyp), elements))["verdict"] == "true"
    Qt2 = ring("x", "y", "z", ideal=["x^2", "x*y", "y^2"])
    rep = gorenstein_dg_check(koszul(dg_from_ring(Qt2), ["z"]))
    assert rep["verdict"] == "false"
    assert not rep["tables_match"]


def test_dual_of_koszul_requires_a_koszul_dg_ring_over_a_ring():
    B = ring("x")
    ext = trivial_extension(B, FPModule(B, (0,)), 1)
    with pytest.raises(ValueError):
        dualizing_of_koszul(ext)


def test_a_koszul_ring_over_a_trivial_extension_is_refused_by_the_duality_readers():
    B = ring("x", "y", ideal=["x*y"])
    ext = trivial_extension(B, FPModule(B, (0,)), 1)
    K = koszul(ext, ["y"])
    assert K.kind == "koszul" and K.lifts is None
    for reader in (dualizing_of_koszul, self_duality_check, gorenstein_dg_check):
        with pytest.raises(ValueError, match="^expected a Koszul DG-ring over a ring$"):
            reader(K)
    with pytest.raises(CheckInputError, match="^self-duality check needs a ring base$"):
        run_check("self_duality", ext, {"elements": ["y"]}, RunConfig())
    job = {
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "dg": {"kind": "koszul", "elements": ["y"], "base": {"kind": "trivial_extension"}},
        "tasks": [{"task": "duality"}],
    }
    result = run_job(job)["results"][0]["result"]
    assert "amp_koszul" not in result and "dual_homology" not in result


def test_a_job_resolves_its_ring_once(monkeypatch):
    # Three gorenstein_transfer checks and a duality task: each reads the
    # ring's Betti table and dualizing complex, from one resolution.
    job = json.loads((SUITE / "a09_gorenstein_quadric_surface.json").read_text(encoding="utf-8"))
    job["tasks"].append({"task": "duality", "elements": ["y", "z"]})
    resolved = []
    resolve = complexes.free_resolution

    def counting(M):
        resolved.append(M.ring)
        return resolve(M)

    monkeypatch.setattr(complexes, "free_resolution", counting)
    for run in (1, 2):
        report = run_job(job)
        assert report["status"] == "ok" and report["expectations_met"]
        assert len(resolved) == run
        assert resolved[-1].variables == ("x", "y", "z")
    # The second job built and resolved a ring of its own.
    assert resolved[1] is not resolved[0]


def test_a_tensor_of_koszul_rings_dualizes_as_the_koszul_ring_on_both_elements():
    # K(x) (x) K(y) and K(x, y) over k[x,y,z]/(xy - z^2), each extended by z:
    # the tensor carries the lifts of both factors over their common base.
    Q = ring("x", "y", "z", ideal=["x*y - z^2"])
    A = dg_from_ring(Q)
    T = dg_tensor(koszul(A, ["x"]), koszul(A, ["y"]))
    assert [e.rep for e in T.lifts] == [poly("x", Q), poly("y", Q)]
    assert T.base == Q

    def results(dg):
        tasks = [
            {"task": "duality", "elements": ["z"]},
            {"task": "check", "name": "self_duality", "elements": ["z"]},
            {"task": "check", "name": "gorenstein_transfer", "elements": ["z"]},
        ]
        job = {"vars": ["x", "y", "z"], "ideal": ["x*y - z^2"], "dg": dg, "tasks": tasks}
        report = run_job(job)
        assert report["status"] == "ok"
        return report["results"]

    tensor = {
        "kind": "tensor",
        "left": {"kind": "koszul", "elements": ["x"]},
        "right": {"kind": "koszul", "elements": ["y"]},
    }
    both = results({"kind": "koszul", "elements": ["x", "y"]})
    assert results(tensor) == both
    assert both[0]["result"]["amp_equal"] is True
    assert [r["result"]["verdict"] for r in both[1:]] == ["PASS", "PASS"]
