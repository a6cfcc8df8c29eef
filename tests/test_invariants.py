from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly, ring
from dgkoszul import (
    FPModule,
    PrimeField,
    amp_profile,
    cm_certify,
    compute_invariants,
    depth,
    dg_from_ring,
    flatdim_over_regular,
    greedy_regular_sequence,
    has_constant_amplitude,
    homotopy_fiber,
    is_local_cm,
    is_regular,
    kernel,
    koszul,
    lcdim,
    run_job,
    seq_depth,
    trivial_extension,
)
from dgkoszul.complexes import _monomials_of_degree
from dgkoszul.dgring import ElementOfH0
from dgkoszul.invariants import ImproperIdealError, NonLocalMapError
from dgkoszul.modules import regular_quotient

S101 = ring("x", "y", "z", field=PrimeField(101))
Q101 = ring("x", "y", "z", ideal=["x*y - z^2"], field=PrimeField(101))


def _example_extension(field_ring=None):
    B = field_ring or ring("x", "y", ideal=["x*y"])
    M = FPModule.quotient_by_ideal(B, [poly("x", B)])
    return trivial_extension(B, M, 2)


def test_amp_profile_of_ring():
    assert amp_profile(dg_from_ring(ring("x", "y"))) == (0, 0, 0)


def test_amp_profile_of_extension():
    assert amp_profile(_example_extension()) == (-2, 0, 2)


def test_amp_profile_of_zero_cone():
    A = dg_from_ring(ring("x"))
    K = koszul(A, [A.base.poly_ring.zero])
    assert amp_profile(K) == (-1, 0, 1)


def test_lcdim_values():
    assert lcdim(dg_from_ring(ring("x", "y"))) == 2
    assert lcdim(_example_extension()) == 1  # max(1 + 0, 1 - 2)
    Q = ring("x", ideal=["x"])
    assert lcdim(dg_from_ring(Q)) == 0


def test_is_regular():
    A = dg_from_ring(ring("x", "y"))
    assert is_regular(A, "x")[0]
    B = dg_from_ring(ring("x", "y", ideal=["x*y"]))
    ok, cert = is_regular(B, "x")
    assert not ok and "kernel_witness" in cert
    ext = _example_extension()
    assert is_regular(ext, "y")[0]
    assert not is_regular(ext, "x")[0]


@st.composite
def _cokernels_and_elements(draw):
    """A graded cokernel of rank 1 or 2 over F_101[x, y, z], modulo xy - z^2
    or not, and a homogeneous element of degree 1 or 2."""
    Q = Q101 if draw(st.booleans()) else S101
    coeffs = st.integers(1, 100)
    rank = draw(st.integers(1, 2))
    twists = tuple(draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank)))

    def relation(degree):
        v = {}
        for comp, twist in enumerate(twists):
            if degree >= twist:
                monos = st.sampled_from(_monomials_of_degree(3, degree - twist))
                for e in draw(st.lists(monos, max_size=3, unique=True)):
                    v[(comp, e)] = draw(coeffs)
        return v

    rels = [relation(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 3)))]
    monos = st.sampled_from(_monomials_of_degree(3, draw(st.integers(1, 2))))
    x = Q.poly_ring.poly(draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3)))
    return FPModule(Q, twists, rels), ElementOfH0(x)


@settings(max_examples=60, deadline=None)
@given(_cokernels_and_elements())
def test_the_series_verdict_on_regularity_is_the_kernel_verdict(case):
    # x is H-regular iff HS(H/xH) = (1 - t^deg x) HS(H), iff no element of
    # ker(x : F -> F/N) lies outside N.  H/xH, extended from H's basis, has
    # the basis that its relations give from scratch.
    H, x = case
    times_x = [{(j, e): c for (_, e), c in x.rep.vec.items()} for j in range(H.rank)]
    injective = all(H.element_is_zero(v) for v in kernel(times_x, H))
    quotient = regular_quotient(H, x.rep, x.degree)
    assert (quotient is not None) == injective
    if quotient is not None:
        fresh = FPModule(H.ring, H.twists, quotient.rels)
        assert quotient._reduced_basis() == fresh._reduced_basis()
        hs = H.hilbert_series()
        assert quotient.hilbert_series() == hs - hs.shift(x.degree)


def test_depth_examples():
    assert depth(dg_from_ring(ring("x", "y", "z")), ["x", "y", "z"]) == 3
    assert depth(dg_from_ring(ring("x", "y", ideal=["x^2", "x*y"])), ["x", "y"]) == 0
    assert depth(dg_from_ring(ring("x", "y")), ["x"]) == 1


def test_depth_rejects_improper_ideal():
    A = dg_from_ring(ring("x", ideal=["x"]))
    with pytest.raises(ImproperIdealError):
        depth(A, ["x", A.base.poly_ring.one])


def test_depth_generating_set_independence():
    cases = [
        (dg_from_ring(ring("x", "y", "z")), ["x", "y"], ["x", "x + y", "y"]),
        (dg_from_ring(ring("x", "y", ideal=["x*y"])), ["x", "y"], ["x + y", "y"]),
        (
            dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"])),
            ["x", "z"],
            ["x + z", "z"],
        ),
    ]
    for A, gens, alt in cases:
        assert depth(A, gens) == depth(A, alt)


def test_seq_depth_examples():
    Aq = dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"]))
    assert seq_depth(Aq, ["x", "z"]) == 1
    A3 = dg_from_ring(ring("x", "y", "z"))
    assert seq_depth(A3, ["x", "y", "z"]) == 3
    ext = _example_extension()
    assert seq_depth(ext, ["y"]) >= 1


def test_seq_depth_equals_depth_minus_inf():
    fixtures = [
        (dg_from_ring(ring("x", "y")), ["x", "y"]),
        (dg_from_ring(ring("x", "y", ideal=["x*y"])), ["x"]),
        (_example_extension(), ["y"]),
        (_example_extension(), ["x", "y"]),
    ]
    for A, gens in fixtures:
        assert seq_depth(A, gens) == depth(A, gens) - A.inf()


def test_seq_depth_bounded_by_dimension():
    fixtures = [
        dg_from_ring(ring("x", "y")),
        dg_from_ring(ring("x", "y", ideal=["x*y"])),
        dg_from_ring(ring("x", "y", ideal=["x^2", "x*y"])),
        _example_extension(),
        koszul(dg_from_ring(ring("x", "y", ideal=["x*y"])), ["x"]),
    ]
    for A in fixtures:
        sd = seq_depth(A, A.irrelevant_ideal())
        assert 0 <= sd <= A.h0.dim()


def test_greedy_witness_full_flag():
    A = dg_from_ring(ring("x", "y"))
    w = greedy_regular_sequence(A, ["x", "y"])
    assert len(w) == 2 and not w.exhausted
    A2 = dg_from_ring(ring("x", "y", ideal=["x^2"]))
    w2 = greedy_regular_sequence(A2, ["x"])
    assert len(w2) == 0 and not w2.exhausted
    Aq = dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"]))
    wq = greedy_regular_sequence(Aq, ["x", "z"])
    assert len(wq) == 1 and not wq.exhausted


def test_generators_above_the_candidate_degree_are_candidates():
    # x^3, y^3 is a regular sequence in k[x,y]; each cubic must be tried.
    A = dg_from_ring(ring("x", "y"))
    w = greedy_regular_sequence(A, ["x^3", "y^3"])
    assert sorted(str(e.rep) for e in w.elements) == ["x^3", "y^3"]
    assert not w.exhausted
    for name in ("seq_depth", "depth_formula"):
        job = {
            "vars": ["x", "y"],
            "tasks": [{"task": "check", "name": name, "ideal": ["x^3", "y^3"]}],
        }
        record = run_job(job)["results"][0]["result"]
        assert record["verdict"] == "PASS", record
        assert "witness_mismatch" not in record


def test_greedy_budget_exhaustion_flagged():
    Aq = dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"]))
    w = greedy_regular_sequence(Aq, ["x", "z"], budget=1)
    assert w.exhausted


def test_greedy_matches_seq_depth_when_complete():
    fixtures = [
        (dg_from_ring(ring("x", "y")), ["x", "y"]),
        (dg_from_ring(ring("x", "y", ideal=["x*y"])), ["x", "y"]),
        (dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"])), ["x", "z"]),
        (
            dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"])),
            ["x", "y", "z", "w"],
        ),
    ]
    for A, gens in fixtures:
        w = greedy_regular_sequence(A, gens)
        if not w.exhausted:
            assert len(w) == seq_depth(A, gens)


def test_local_cm_flags():
    assert is_local_cm(dg_from_ring(ring("x", "y", ideal=["x*y"])))
    assert not is_local_cm(dg_from_ring(ring("x", "y", ideal=["x^2", "x*y"])))
    assert is_local_cm(_example_extension())
    # dim 0 short-circuits
    assert is_local_cm(dg_from_ring(ring("x", ideal=["x^2"])))


def test_constant_amplitude():
    assert has_constant_amplitude(dg_from_ring(ring("x", "y")))
    assert not has_constant_amplitude(_example_extension())
    B = ring("x")
    full = trivial_extension(B, FPModule(B, (0,)), 1)
    assert has_constant_amplitude(full)


def test_cm_certify_lattice():
    assert cm_certify(dg_from_ring(ring("x", "y", "z"))) == "true"
    assert cm_certify(dg_from_ring(ring("x", "y", ideal=["x^2", "x*y"]))) == "false"
    assert cm_certify(_example_extension()) == "unknown"
    K = koszul(_example_extension(), ["y"])
    assert cm_certify(K) == "false"


def test_homotopy_fiber_examples():
    B = dg_from_ring(ring("u", "v", ideal=["u*v"]))
    fib = homotopy_fiber(["t"], ["u+v"], B)
    assert fib.amp() == 0
    Bx = dg_from_ring(ring("x"))
    assert homotopy_fiber(["t"], ["x"], Bx).amp() == 0
    assert homotopy_fiber(["t"], ["0"], Bx).amp() == 1


def test_homotopy_fiber_rejects_units():
    Bx = dg_from_ring(ring("x"))
    with pytest.raises(NonLocalMapError):
        homotopy_fiber(["t"], ["1"], Bx)


def test_flatdim_reports():
    B = dg_from_ring(ring("u", "v", ideal=["u*v"]))
    rep = flatdim_over_regular(["t"], ["u+v"], B)
    assert rep["flatdim"] == 0 and rep["rhs"] == 0 and rep["sides_equal"]
    rep2 = flatdim_over_regular(["t"], ["0"], dg_from_ring(ring("x")))
    assert rep2["flatdim"] == 1 and rep2["rhs"] == 1
    rep3 = flatdim_over_regular(["t"], ["x"], dg_from_ring(ring("x", "y", ideal=["y^2"])))
    assert rep3["flatdim"] == 0 and rep3["amp_target"] == 0
    rep4 = flatdim_over_regular(
        ["t"], ["x"], dg_from_ring(ring("x", "y", ideal=["y^2", "x*y"]))
    )
    assert rep4["flatdim"] == 1 and rep4["amp_target"] == 0
    assert rep4["cm_certified"] == "false"


def test_invariant_report_shape():
    rep = compute_invariants(_example_extension(), ideals={"q": ["y"]}, budget=100)
    assert rep["inf"] == -2 and rep["amp"] == 2
    assert rep["local_cm"] is True
    assert rep["constant_amplitude"] is False
    assert rep["seq_depth_at_irrelevant"] == 1
    assert rep["depth_at_irrelevant"] == -1
    assert rep["per_ideal"][0]["seq_depth"] == 1
    assert rep["witness"]["elements"]


def test_invariants_build_no_koszul_complex_at_the_irrelevant_ideal(monkeypatch):
    # The depth at the irrelevant ideal reads K(A; variables) from the
    # ring's Betti table, and nothing reads its terms or differentials.
    import dgkoszul.dgring

    built = []
    real = dgkoszul.dgring.koszul_complex

    def counting(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(dgkoszul.dgring, "koszul_complex", counting)
    cubic = dg_from_ring(ring("a", "b", "c", "d", ideal=["a*c - b^2", "b*d - c^2", "a*d - b*c"]))
    rep = compute_invariants(cubic, with_witness=False)
    assert len(built) == 0
    assert rep["depth_at_irrelevant"] == 2 and rep["local_cm"] is True


@pytest.mark.parametrize("t", ["t", "_t"])
def test_a_job_variable_may_have_any_name_the_nilpotency_test_might_use(t):
    # The radical-membership certificate works in S[t]; a job variable
    # named like t must not clash with it.
    job = {
        "vars": ["x", t],
        "ideal": [f"x*{t}"],
        "dg": {"kind": "trivial_extension", "shift": 2, "module": {"rels": [["x"]]}},
        "tasks": [{"task": "invariants"}],
    }
    report = run_job(job)
    assert report["status"] == "ok"
    result = report["results"][0]["result"]
    assert result["local_cm"] is True
    assert result["constant_amplitude"] is False
    assert result["cm_certified"] == "unknown"
    plain = run_job(dict(job, vars=["x", "t"], ideal=["x*t"]))["results"][0]["result"]
    assert json.dumps(result).replace(f'"{t}"', '"t"') == json.dumps(plain)
