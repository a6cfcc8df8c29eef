from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import grevlex_textbook, poly, ring
from dgkoszul import PolyRing, PrimeField, RationalField, parse_poly
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
    first = gb.normal_form(probe, basis, F)
    last = gb.normal_form(probe, basis[::-1], F)
    assert first == last


def _cmp(a, b):
    return (a > b) - (a < b)


_exponents = st.tuples(*[st.integers(0, 4)] * 3)
_module_terms = st.tuples(st.integers(0, 3), _exponents)


def _packed(packer, term):
    (p,) = packer.pack({term: 1})
    return p


@settings(max_examples=300, deadline=None)
@given(_module_terms, _module_terms, _exponents, st.integers(0, 4))
def test_packed_terms_match_their_textbook_orders(s, t, m, split):
    (cs, es), (ct, et) = s, t
    # Term over position: grevlex on the monomials, the lower component
    # wins ties.
    top = grevlex_textbook(es, et) or _cmp(ct, cs)
    # Elimination: below split term over position, from split on position
    # over term, and every term below split beats every term from it on.
    if cs < split and ct < split:
        eliminated = top
    elif cs >= split and ct >= split:
        eliminated = _cmp(ct, cs) or grevlex_textbook(es, et)
    else:
        eliminated = 1 if cs < split else -1
    # Terms of degree up to 12 times monomials of degree up to 12.
    layouts = ((gb._Packer(3, 4, 24), top), (gb._Packer(3, 4, 24, split), eliminated))
    for packer, order in layouts:
        ps, pt = _packed(packer, s), _packed(packer, t)
        assert _cmp(ps, pt) == order
        assert packer.unpack({ps: 1}) == {s: 1}
        # A product is +, and the packed divisibility test is componentwise <=
        # within one component.
        shifted = _packed(packer, (cs, mono_mul(es, m)))
        assert ps + packer.mono(m) == shifted
        assert not (shifted - ps) & packer.mask
        divides = cs == ct and mono_divides(es, et)
        assert (not (pt - ps) & packer.mask) == divides


def test_a_term_too_large_for_its_fields_raises():
    packer = gb._Packer(2, 1, 3)  # 2-bit fields: degree 3 fits, degree 4 does not
    assert packer.unpack(packer.pack({(0, (3, 0)): 1})) == {(0, (3, 0)): 1}
    for e in ((4, 0), (2, 2), (0, 7)):
        with pytest.raises(OverflowError):
            packer.pack({(0, e): 1})
        with pytest.raises(OverflowError):
            packer.mono(e)


def test_generator_at_the_exponent_bound():
    R = PolyRing(("x", "y"), F)
    gens = [gb.column_to_vec((parse_poly(t, R),)) for t in ("x^1000 - y^1000", "x*y")]
    assert gb.buchberger(gens[:1], (0,), F) == gens[:1]
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger(gens, (0,), F)
    # y * (x^1000 - y^1000) - x^999 * (x*y) = -y^1001, in degree 1001; the
    # pairs with y^1001 have degrees 1002 and 2001, so the cap must admit them.
    basis = gb.buchberger(gens, (0,), F, degree_cap=2001)
    assert [gb.vec_to_column(v, R, 1)[0] for v in basis] == [
        parse_poly(t, R) for t in ("y^1000*y", "x^1000 - y^1000", "x*y")
    ]
    for text, remainder in [
        ("x^1000", "y^1000"),
        ("x^1000*x", "0"),
        ("x^1000*x^1000", "0"),
        ("y^1000 + x^999", "y^1000 + x^999"),
    ]:
        v = gb.column_to_vec((parse_poly(text, R),))
        rem = gb.vec_to_column(gb.normal_form(v, basis, F), R, 1)[0]
        assert rem == parse_poly(remainder, R)


def test_a_negative_twist_reaches_the_cap():
    # In S(3) + S(1): the S-pair of x^4 e0 + z^2 e1 and y^5 e0 has monomial
    # degree 9 and twisted degree 6; it leaves y^5 z^2 e1.
    R = PolyRing(("x", "y", "z"), F)
    gens = [{(0, (4, 0, 0)): 1, (1, (0, 0, 2)): 1}, {(0, (0, 5, 0)): 1}]
    expected = [{(1, (0, 5, 2)): 1}, {(0, (0, 5, 0)): 1}, gens[0]]
    assert gb.buchberger(gens, (-3, -1), F, degree_cap=6) == expected
    assert gb.buchberger(gens, (0, 2), F, degree_cap=9) == expected
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger(gens, (-3, -1), F, degree_cap=5)


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
    leads = gb.leading_terms(basis)
    for i, (g, lt) in enumerate(zip(basis, leads)):
        assert g[lt] == 1
        for j, (comp, e) in enumerate(leads):
            if j != i:
                assert not any(c == comp and mono_divides(e, t) for c, t in g)
    for v in gens + [probe]:
        first = gb.normal_form(v, basis, F101)
        assert first == gb.normal_form(v, basis[::-1], F101)
        assert not first or v is probe


def _reference_normal_form(f, basis, field):
    """Plain division on (component, exponent tuple) terms, term over
    position by the textbook grevlex comparator: each step reduces the
    largest term left by the first basis element whose lead divides it."""
    order = functools.cmp_to_key(lambda s, t: grevlex_textbook(s[1], t[1]) or _cmp(t[0], s[0]))
    leads = [max(g, key=order) for g in basis]
    work, rem = dict(f), {}
    while work:
        comp, e = t = max(work, key=order)
        for g, (lead_comp, lead_e) in zip(basis, leads):
            if lead_comp == comp and all(a <= b for a, b in zip(lead_e, e)):
                break
        else:
            rem[t] = work.pop(t)
            continue
        factor = field.div(work[t], g[(lead_comp, lead_e)])
        shift = tuple(b - a for a, b in zip(lead_e, e))
        for (c, e0), v in g.items():
            u = (c, tuple(a + b for a, b in zip(e0, shift)))
            x = field.sub(work.get(u, field.zero), field.mul(factor, v))
            if x == field.zero:
                work.pop(u, None)
            else:
                work[u] = x
    return rem


@pytest.mark.parametrize("field", [F101, RationalField()], ids=["F101", "QQ"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_normal_form_matches_a_plain_tuple_division(field, data):
    # Random vectors, neither homogeneous nor a Groebner basis, in a free
    # module of rank 1 to 3 over k[x, y, z].
    rank = data.draw(st.integers(1, 3))
    terms = st.tuples(st.integers(0, rank - 1), st.tuples(*[st.integers(0, 3)] * 3))
    if isinstance(field, PrimeField):
        coeffs = st.integers(1, 100)
    else:
        coeffs = st.fractions(-9, 9, max_denominator=9).filter(bool)
    vectors = st.dictionaries(terms, coeffs, min_size=1, max_size=5)
    basis = data.draw(st.lists(vectors, min_size=1, max_size=4))
    f = data.draw(vectors)
    expected = _reference_normal_form(f, basis, field)
    # Same remainder, with its terms in the same (descending) order.
    assert list(gb.normal_form(f, basis, field).items()) == list(expected.items())
