from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import grevlex_textbook, poly, ring
from dgkoszul import PolyRing, PrimeField, parse_poly
from dgkoszul import groebner as gb
from dgkoszul.modules import modulo
from dgkoszul.poly import mono_divides, mono_mul

F = PrimeField()


def _ideal_gb(texts, R, inhomogeneous=False):
    vecs = [gb.column_to_vec((parse_poly(t, R),)) for t in texts]
    return gb.buchberger(vecs, (0,), F, allow_inhomogeneous=inhomogeneous)


def test_already_reduced_basis_unchanged():
    R = PolyRing(("x", "y"), F)
    basis = _ideal_gb(["x", "y"], R)
    polys = {gb.vec_to_column(v, R, 1)[0] for v in basis}
    assert polys == {parse_poly("x", R), parse_poly("y", R)}


def test_inhomogeneous_basis_contains_new_element():
    # y^2 - x*z = x*(x*y - z) - y*(x^2 - y) lies in (x^2 - y, x*y - z).
    R = PolyRing(("x", "y", "z"), F)
    basis = _ideal_gb(["x^2 - y", "x*y - z"], R, inhomogeneous=True)
    claimed = parse_poly("y^2 - x*z", R)
    rem = gb.normal_form(gb.column_to_vec((claimed,)), basis, F)
    assert not rem
    # and every basis element lies in the original ideal: cross-check by
    # the degree-truncation comparison in test_modules (Hilbert series).


def test_single_generator_module():
    R = PolyRing(("x",), F)
    v = gb.column_to_vec((parse_poly("x", R),))
    basis = gb.buchberger([v], (0,), F)
    assert basis == [v]


def test_normal_form_examples():
    R = PolyRing(("x", "y"), F)
    basis = _ideal_gb(["x"], R)
    xy = gb.column_to_vec((parse_poly("x*y", R),))
    assert gb.normal_form(xy, basis, F) == {}
    y2 = gb.column_to_vec((parse_poly("y^2", R),))
    assert gb.normal_form(y2, basis, F) == y2
    basis2 = _ideal_gb(["x^2 - y"], R, inhomogeneous=True)
    x2 = gb.column_to_vec((parse_poly("x^2", R),))
    rem = gb.normal_form(x2, basis2, F)
    assert gb.vec_to_column(rem, R, 1)[0] == parse_poly("y", R)


def test_normal_form_is_reduction_path_independent():
    R = PolyRing(("x", "y", "z"), F)
    basis = _ideal_gb(["x*y - z^2", "y^2 - x*z", "x^2 - y*z"], R)
    probe = gb.column_to_vec((parse_poly("(x + y + z)*(x + y + z)*(x + y + z)", R),))
    leads = [gb.leading_term(g) for g in basis]
    first = gb.normal_form(probe, basis, F)
    last = gb.normal_form(probe, basis[::-1], F, leads=leads[::-1])
    assert first == last


def _cmp(a, b):
    return (a > b) - (a < b)


_exponents = st.tuples(*[st.integers(0, 4)] * 3)
_module_terms = st.tuples(st.integers(0, 3), _exponents)


@settings(max_examples=300, deadline=None)
@given(_module_terms, _module_terms, _exponents, st.integers(0, 4))
def test_module_term_keys_match_their_textbook_orders(s, t, m, split):
    (cs, es), (ct, et) = s, t
    # Term over position: grevlex on the monomials, the lower component
    # wins ties.
    top = grevlex_textbook(es, et) or _cmp(ct, cs)
    assert _cmp(gb.term_key(s), gb.term_key(t)) == top
    shifted = gb.term_key((cs, mono_mul(m, es))), gb.term_key((cs, mono_mul(m, et)))
    assert _cmp(*shifted) == _cmp(gb.term_key((cs, es)), gb.term_key((cs, et)))
    # Elimination: below split term over position, from split on position
    # over term, and every term below split beats every term from it on.
    key = gb._elimination_key(split)
    if cs < split and ct < split:
        assert _cmp(key(s), key(t)) == top
    elif cs >= split and ct >= split:
        assert _cmp(key(s), key(t)) == (_cmp(ct, cs) or grevlex_textbook(es, et))
    else:
        assert _cmp(key(s), key(t)) == (1 if cs < split else -1)


def _syzygies(texts, R):
    cols = [gb.column_to_vec((parse_poly(t, R),)) for t in texts]
    return gb.syzygies(cols, (0,), R)


def test_koszul_syzygy_of_two_variables():
    R = PolyRing(("x", "y"), F)
    syz = _syzygies(["x", "y"], R)
    assert len(syz) == 1
    # the Koszul syzygy (y, -x) up to normalization
    sx, sy = gb.vec_to_column(syz[0], R, 2)
    assert sx * parse_poly("x", R) + sy * parse_poly("y", R) == R.zero


def test_syzygies_of_three_variables_annihilate():
    R = PolyRing(("x", "y", "z"), F)
    syz = _syzygies(["x", "y", "z"], R)
    assert len(syz) == 3
    gens = [parse_poly(t, R) for t in ("x", "y", "z")]
    for s in syz:
        total = R.zero
        for c, g in zip(gb.vec_to_column(s, R, 3), gens):
            total = total + c * g
        assert total.is_zero()


def test_syzygy_of_single_nonzerodivisor_is_empty():
    R = PolyRing(("x", "y"), F)
    assert _syzygies(["x^2 + y^2"], R) == []


def test_inhomogeneous_input_rejected():
    R = PolyRing(("x", "y"), F)
    v = gb.column_to_vec((parse_poly("x + x^2", R),))
    with pytest.raises(gb.InhomogeneousError):
        gb.buchberger([v], (0,), F)


def test_degree_cap_reports_diagnostic():
    R = PolyRing(("x", "y", "z"), F)
    vecs = [
        gb.column_to_vec((parse_poly(t, R),))
        for t in ("x^5 - y^4*z", "x^2*y^3 - z^5")
    ]
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger(vecs, (0,), F, degree_cap=5)


def test_modulo_contains_a_unit_exactly_for_members():
    # v lies in span(cols) exactly when the colon ideal (span(cols) : v),
    # as generated by modulo, contains a nonzero constant.
    R = PolyRing(("x", "y"), F)
    cols = [
        gb.column_to_vec((parse_poly("x", R),)),
        gb.column_to_vec((parse_poly("y", R),)),
    ]
    constant = (0, 0)

    def is_member(text):
        v = gb.column_to_vec((parse_poly(text, R),))
        return any(set(c) == {(0, constant)} for c in modulo([v], cols, (0,), R))

    assert is_member("x^2 + x*y")
    assert not is_member("1")


def test_nilpotency_by_radical_membership():
    Q1 = ring("x", ideal=["x^2"])
    assert Q1.is_nilpotent(poly("x", Q1))
    Q2 = ring("x", "y", ideal=["x*y"])
    assert not Q2.is_nilpotent(poly("x", Q2))
    assert Q2.is_nilpotent(Q2.poly_ring.zero)
    # a unit is never nilpotent in a nonzero ring
    assert not Q2.is_nilpotent(Q2.poly_ring.one)
    Q3 = ring("x", "y", ideal=["x^2*y", "x*y^2"])
    assert Q3.is_nilpotent(poly("x*y", Q3))
    assert not Q3.is_nilpotent(poly("x", Q3))


def test_buchberger_deterministic():
    R = PolyRing(("x", "y", "z"), F)
    texts = ["x*y - z^2", "y^2 - x*z", "x^2 - y*z"]
    b1 = _ideal_gb(texts, R)
    b2 = _ideal_gb(list(reversed(texts)), R)
    # same reduced basis regardless of generator order
    assert b1 == b2


F101 = PrimeField(101)


def _monomials(degree, nvars=3):
    return [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]


@st.composite
def _submodules(draw):
    """Homogeneous generators of a submodule of a free module of rank 1 or 2
    over F_101[x, y, z], and one homogeneous probe vector."""
    rank = draw(st.integers(1, 2))
    twists = tuple(draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank)))

    def vector(degree):
        v = {}
        for comp, twist in enumerate(twists):
            if degree >= twist:
                monos = st.sampled_from(_monomials(degree - twist))
                for e in draw(st.lists(monos, max_size=3, unique=True)):
                    v[(comp, e)] = draw(st.integers(1, 100))
        return v

    gens = [vector(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    return rank, twists, gens, vector(draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(_submodules())
def test_buchberger_gives_a_reduced_basis_with_path_independent_remainders(case):
    rank, twists, gens, probe = case
    basis = gb.buchberger(gens, twists, F101)
    leads = [gb.leading_term(g) for g in basis]
    for i, (g, lt) in enumerate(zip(basis, leads)):
        assert g[lt] == 1
        for j, (comp, e) in enumerate(leads):
            if j != i:
                assert not any(c == comp and mono_divides(e, t) for c, t in g)
    for v in gens + [probe]:
        first = gb.normal_form(v, basis, F101)
        assert first == gb.normal_form(v, basis[::-1], F101, leads=leads[::-1])
        assert first == gb.normal_form(v, basis, F101, leads=leads)
        assert not first or v is probe
