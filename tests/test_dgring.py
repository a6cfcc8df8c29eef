from __future__ import annotations

import pytest

from conftest import poly, ring
from dgkoszul import (
    ElementOfH0,
    FPModule,
    RingMap,
    base_change,
    dg_from_ring,
    dg_tensor,
    koszul,
    lift_independence_check,
    trivial_extension,
)
from dgkoszul.complexes import Complex, koszul_complex, tensor_complexes
from dgkoszul import dgring
from dgkoszul.dgring import MAX_COMPLEX_RANK, ComplexSizeError
from dgkoszul.poly import RingMismatchError


def _tables_equal(a, b):
    return set(a) == set(b) and all(a[i] == b[i] for i in a)


def test_ring_as_dg():
    for Q in (ring("x", "y"), ring("x", "y", ideal=["x*y"]), ring("x", ideal=["x"])):
        A = dg_from_ring(Q)
        A.validate()
        assert A.amp() == 0
        assert A.inf() == 0


def test_koszul_on_regular_element():
    A = dg_from_ring(ring("x"))
    K = koszul(A, ["x"])
    K.validate()
    assert K.amp() == 0
    assert K.homology(0).hilbert_series().reduced() == ({0: 1}, 0)


def test_koszul_over_hypersurface_tables():
    A = dg_from_ring(ring("x", "y", ideal=["x*y"]))
    K = koszul(A, ["x"])
    K.validate()
    t = K.homology_table()
    assert t[0].coefficients(3, start=0) == [1, 1, 1, 1]
    assert t[-1].coefficients(3, start=0) == [0, 0, 1, 1]


def test_empty_element_list_returns_self():
    A = dg_from_ring(ring("x"))
    assert koszul(A, []) is A


def test_koszul_is_memoized_on_its_ring():
    A = dg_from_ring(ring("x", "y"))
    assert koszul(A, ["x"]) is koszul(A, ["x"])
    assert koszul(A, ["x", "y"]) is koszul(A, [poly("x", A.base), poly("y", A.base)])
    assert koszul(A, ["y", "x"]) is not koszul(A, ["x", "y"])


def test_two_lifts_of_one_class_give_two_koszul_dg_rings():
    # x^2 and x*y are one class of H^0 = k[x,y]/(x^2 - x*y), and zero
    # representatives of two declared degrees are one class too
    A = dg_from_ring(ring("x", "y", ideal=["x^2 - x*y"]))
    K1 = koszul(A, ["x^2"])
    assert koszul(A, ["x^2"]) is K1
    K2 = koszul(A, ["x*y"])
    assert K2 is not K1
    assert K1.lifts != K2.lifts
    zero = A.base.poly_ring.zero
    Z1 = koszul(A, [ElementOfH0(zero, degree=1)])
    Z2 = koszul(A, [ElementOfH0(zero, degree=2)])
    assert Z1 is koszul(A, [ElementOfH0(zero, degree=1)])
    assert Z2 is not Z1
    assert Z1.homology_table() != Z2.homology_table()


def test_h0_presentation_matches():
    A = dg_from_ring(ring("x", "y", "z"))
    K = koszul(A, ["x + y", "z"])
    K.validate()  # includes the Hilbert + annihilator agreement for H^0


def test_composition_homology_agrees():
    A = dg_from_ring(ring("x", "y", ideal=["x*y"]))
    iterated = koszul(koszul(A, ["x"]), ["y"])
    flat = koszul(A, ["x", "y"])
    assert _tables_equal(iterated.homology_table(), flat.homology_table())


def test_tensor_route_agrees():
    A = dg_from_ring(ring("x", "y", "z"))
    T = dg_tensor(koszul(A, ["x"]), koszul(A, ["y", "z"]))
    flat = koszul(A, ["x", "y", "z"])
    assert _tables_equal(T.homology_table(), flat.homology_table())


def test_koszul_bounds_and_h0():
    A = dg_from_ring(ring("x", "y", ideal=["x*y"]))
    K = koszul(A, ["x", "y"])
    assert K.sup() == 0
    assert K.inf() >= A.inf() - 2
    assert K.h0.dim() == 0


def test_complex_rank_bound_admits_exactly_the_bound():
    # rank(A) * 2^n with rank(A) = 1: nine elements reach the bound, ten pass it.
    A = dg_from_ring(ring("x", "y"))
    assert 2**9 == MAX_COMPLEX_RANK
    K = koszul(A, ["x"] * 9)
    assert sum(t.rank for t in K.underlying.terms.values()) == MAX_COMPLEX_RANK
    with pytest.raises(ComplexSizeError):
        koszul(A, ["x"] * 10)
    assert dg_tensor(koszul(A, ["x"] * 5), koszul(A, ["y"] * 4)).underlying
    with pytest.raises(ComplexSizeError):
        dg_tensor(koszul(A, ["x"] * 5), koszul(A, ["y"] * 5))


def test_trivial_extension_shape():
    B = ring("x", "y", ideal=["x*y"])
    M = FPModule.quotient_by_ideal(B, [poly("x", B)])
    A = trivial_extension(B, M, 2)
    A.validate()
    assert (A.inf(), A.sup(), A.amp()) == (-2, 0, 2)
    assert A.homology(-2).hilbert_series() == M.hilbert_series()


def test_trivial_extension_zero_module_is_ring():
    B = ring("x")
    zero = FPModule.quotient_by_ideal(B, [B.poly_ring.one])
    A = trivial_extension(B, zero, 3)
    assert A.amp() == 0


def test_trivial_extension_shift_validation():
    B = ring("x")
    M = FPModule(B, (0,))
    with pytest.raises(ValueError):
        trivial_extension(B, M, 0)


def test_trivial_extension_rank_one_shift_one():
    B = ring("x")
    M = FPModule.quotient_by_ideal(B, [poly("x", B)])
    A = trivial_extension(B, M, 1)
    assert A.amp() == 1


def test_koszul_on_trivial_extension_decomposes():
    # zero differential in the extension: homology of K(A; elems) overlays
    # K(B; elems) with K(M; elems) shifted by the extension degree
    B = ring("x", "y", ideal=["x*y"])
    M = FPModule.quotient_by_ideal(B, [poly("x", B)])
    A = trivial_extension(B, M, 2)
    K = koszul(A, ["y"])
    KB = koszul(dg_from_ring(B), ["y"])

    KMc = tensor_complexes(
        Complex(B, {0: M}, {}), koszul_complex(B, [poly("y", B)])
    )
    expected = {}
    for i, hs in KB.homology_table().items():
        expected[i] = hs
    for i in KMc.support:
        h = KMc.homology(i)
        if h.rank > 0:
            hs = h.hilbert_series()
            expected[i - 2] = expected.get(i - 2, hs - hs) + hs
    actual = K.homology_table()
    assert set(actual) == {i for i, hs in expected.items() if not hs.is_zero()}
    for i, hs in actual.items():
        assert hs == expected[i]


def test_koszul_module_of_residue_field():
    A = dg_from_ring(ring("x"))
    k_mod = FPModule.quotient_by_ideal(A.base, [poly("x", A.base)])
    KM = tensor_complexes(
        Complex(A.base, {0: k_mod}, {}), koszul_complex(A.base, [poly("x", A.base)])
    )
    # x acts as zero on k: the cone of the zero map has k in degrees 0, -1
    t = {i: KM.homology(i).hilbert_series() for i in KM.support}
    assert t[0].reduced() == ({0: 1}, 0)
    assert t[-1].reduced() == ({1: 1}, 0)


def test_base_change_examples():
    # quotient map k[x,y] -> k[x,y]/(y): K(.; x) base-changes cleanly
    Q = ring("x", "y")
    Kx = koszul(dg_from_ring(Q), ["x"])
    target = ring("x", "y", ideal=["y"])
    f = RingMap(Q, target, [poly("x", target), poly("y", target)])
    pushed = base_change(Kx, f)
    # K(k[x,y]/(y); x) collapses to k
    assert pushed.homology(0).hilbert_series().reduced() == ({0: 1}, 0)
    assert pushed.amp() == 0
    # identity map keeps the complex
    ident = RingMap(Q, Q, [poly("x", Q), poly("y", Q)])
    same = base_change(Kx, ident)
    assert _tables_equal(same.homology_table(), Kx.homology_table())
    # collapse x+y to zero in k[u]
    target2 = ring("u")
    g = RingMap(Q, target2, [poly("u", target2), poly("0 - u", target2)])
    K2 = koszul(dg_from_ring(Q), ["x + y"])
    collapsed = base_change(K2, g)
    t = collapsed.homology_table()
    assert t[0].reduced() == ({0: 1}, 1)
    assert t[-1].reduced()[1] == 1  # H^-1 = k[u] twisted


def test_a_dg_ring_records_its_kind_and_its_koszul_lifts():
    Q = ring("x", "y", "z")
    A = dg_from_ring(Q)
    assert (A.kind, A.lifts) == ("ring", ())
    T = dg_tensor(koszul(A, ["x"]), koszul(A, ["y"]))
    assert T.kind == "tensor"
    assert [e.rep for e in T.lifts] == [poly("x", Q), poly("y", Q)]
    K = koszul(T, ["z"])
    assert K.kind == "koszul"
    assert [e.rep for e in K.lifts] == [poly("x", Q), poly("y", Q), poly("z", Q)]


def test_a_koszul_ring_over_a_trivial_extension_has_no_lifts():
    B = ring("x", "y", ideal=["x*y"])
    ext = trivial_extension(B, FPModule(B, (0,)), 1)
    K = koszul(ext, ["y"])
    assert (ext.kind, ext.lifts) == ("trivial-extension", None)
    assert (K.kind, K.lifts) == ("koszul", None)
    assert koszul(K, ["x"]).lifts is None
    assert dg_tensor(koszul(dg_from_ring(B), ["x"]), K).lifts is None
    ident = RingMap(B, B, [poly("x", B), poly("y", B)])
    with pytest.raises(ValueError, match="^base change needs a Koszul DG-ring over a ring$"):
        base_change(K, ident)


def test_base_change_rejects_non_maps():
    Q = ring("x", "y", ideal=["x^2"])
    K = koszul(dg_from_ring(Q), ["y"])
    target = ring("u")
    f = RingMap(Q, target, [poly("u", target), poly("u", target)])
    with pytest.raises(ValueError):
        base_change(K, f)


def test_lift_independence_dg_level():
    # over A = K(k[x,y]; x), the class of y^2 lifts to y^2 or y^2 + x*y
    A = koszul(dg_from_ring(ring("x", "y")), ["x"])
    rep = lift_independence_check(A, ["y^2"], ["y^2 + x*y"])
    assert rep["equal"]


def test_lift_independence_ring_level():
    Q = ring("x", "y", ideal=["x^2 - x*y"])
    A = dg_from_ring(Q)
    rep = lift_independence_check(A, ["x^2"], ["x*y"])
    assert rep["equal"]
    same = lift_independence_check(A, ["x"], ["x"])
    assert same["equal"]


def test_lift_independence_rejects_distinct_classes():
    A = dg_from_ring(ring("x", "y"))
    with pytest.raises(ValueError):
        lift_independence_check(A, ["x"], ["y"])


def test_regularity_preserves_constant_amplitude():
    # a regular element keeps constant amplitude through the Koszul cone
    from dgkoszul import has_constant_amplitude, is_regular

    fixtures = [
        (dg_from_ring(ring("x", "y")), "x"),
        (dg_from_ring(ring("x", "y", ideal=["x*y"])), "x + y"),
        (dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"])), "x + y"),
    ]
    for A, el in fixtures:
        assert has_constant_amplitude(A)
        ok, _ = is_regular(A, el)
        assert ok
        K = koszul(A, [el])
        assert has_constant_amplitude(K)


def test_zero_element_carries_declared_degree():
    A = dg_from_ring(ring("x"))
    e = ElementOfH0(A.base.poly_ring.zero, degree=3)
    K = koszul(A, [e])
    assert K.homology(-1).hilbert_series() == A.base.hilbert_series().shift(3)


def test_an_element_of_another_ring_is_a_ring_mismatch(monkeypatch):
    A = dg_from_ring(ring("x", "y", ideal=["x*y"]))
    foreign = poly("x", ring("x", "y", "z"))

    def no_tensor(*args):
        raise AssertionError("the complex was built before the ring check")

    # The check comes before any complex is built.
    monkeypatch.setattr(dgring, "tensor_complexes", no_tensor)
    message = r"^element x of GF\(32003\)\[x, y, z\] is not in GF\(32003\)\[x, y\]$"
    for element in (foreign, ElementOfH0(foreign)):
        with pytest.raises(RingMismatchError, match=message):
            koszul(A, [element])
    with pytest.raises(RingMismatchError):
        A.base.normal_forms([foreign])


def test_koszul_on_the_variables_of_the_zero_ring_has_no_homology():
    # The unit ideal has no minimal resolution; the zero ring's Koszul
    # homology is read from the differentials, and it is zero.
    Q = ring("x", "y", ideal=["1"])
    assert Q.is_trivial()
    assert koszul(dg_from_ring(Q), ["x", "y"]).homology_table() == {}
