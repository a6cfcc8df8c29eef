from __future__ import annotations

import functools
import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import grevlex_textbook, poly, ring
from dgkoszul import PolyRing, PrimeField, RationalField, parse_poly
from dgkoszul import groebner as gb
from dgkoszul.modules import modulo
from dgkoszul.poly import Polynomial, grevlex_key, mono_divides, mono_mul, vec_to_column

F = PrimeField()


def _ideal_gb(texts, R, inhomogeneous=False):
    vecs = [parse_poly(t, R).vec for t in texts]
    basis, _ = gb.buchberger(vecs, (0,), F, allow_inhomogeneous=inhomogeneous)
    return basis


def test_already_reduced_basis_unchanged():
    R = PolyRing(("x", "y"), F)
    basis = _ideal_gb(["x", "y"], R)
    polys = {Polynomial(R, v) for v in basis}
    assert polys == {parse_poly("x", R), parse_poly("y", R)}


def test_inhomogeneous_basis_contains_new_element():
    # y^2 - x*z = x*(x*y - z) - y*(x^2 - y) lies in (x^2 - y, x*y - z).
    R = PolyRing(("x", "y", "z"), F)
    basis = _ideal_gb(["x^2 - y", "x*y - z"], R, inhomogeneous=True)
    claimed = parse_poly("y^2 - x*z", R)
    rem = gb.normal_forms([claimed.vec], basis, F)[0]
    assert not rem
    # and every basis element lies in the original ideal: cross-check by
    # the degree-truncation comparison in test_modules (Hilbert series).


def test_single_generator_module():
    R = PolyRing(("x",), F)
    v = parse_poly("x", R).vec
    basis, _ = gb.buchberger([v], (0,), F)
    assert basis == [v]


def test_normal_form_examples():
    R = PolyRing(("x", "y"), F)
    basis = _ideal_gb(["x"], R)
    xy = parse_poly("x*y", R).vec
    assert gb.normal_forms([xy], basis, F)[0] == {}
    y2 = parse_poly("y^2", R).vec
    assert gb.normal_forms([y2], basis, F)[0] == y2
    basis2 = _ideal_gb(["x^2 - y"], R, inhomogeneous=True)
    x2 = parse_poly("x^2", R).vec
    rem = gb.normal_forms([x2], basis2, F)[0]
    assert Polynomial(R, rem) == parse_poly("y", R)


def test_normal_form_is_reduction_path_independent():
    R = PolyRing(("x", "y", "z"), F)
    basis = _ideal_gb(["x*y - z^2", "y^2 - x*z", "x^2 - y*z"], R)
    probe = parse_poly("(x + y + z)*(x + y + z)*(x + y + z)", R).vec
    first = gb.normal_forms([probe], basis, F)[0]
    last = gb.normal_forms([probe], basis[::-1], F)[0]
    assert first == last


def _cmp(a, b):
    return (a > b) - (a < b)


def _term_cmp(split=None):
    """Textbook comparator of (component, exponent) terms, -1, 0 or 1.
    Term over position: grevlex on the monomials, the lower component wins
    ties.  With split, the block comes first: every term below split beats
    every term from split on; within each block, term over position."""

    def cmp(s, t):
        (cs, es), (ct, et) = s, t
        if split is not None and (cs < split) != (ct < split):
            return 1 if cs < split else -1
        return grevlex_textbook(es, et) or _cmp(ct, cs)

    return cmp


_exponents = st.tuples(*[st.integers(0, 4)] * 3)
_module_terms = st.tuples(st.integers(0, 3), _exponents)


def _packed(packer, term):
    (p,) = packer.pack({term: 1})
    return p


@settings(max_examples=300, deadline=None)
@given(_module_terms, _module_terms, _exponents, st.integers(0, 4))
def test_packed_terms_match_their_textbook_orders(s, t, m, split):
    (cs, es), (ct, et) = s, t
    # Terms of degree up to 12 times monomials of degree up to 12.
    layouts = ((gb._Packer(3, 4, 24), None), (gb._Packer(3, 4, 24, split), split))
    for packer, order_split in layouts:
        ps, pt = _packed(packer, s), _packed(packer, t)
        assert _cmp(ps, pt) == _term_cmp(order_split)(s, t)
        assert packer.unpack({ps: 1}) == {s: 1}
        # A product is +, and the packed divisibility test is componentwise <=
        # within one component.
        shifted = _packed(packer, (cs, mono_mul(es, m)))
        assert ps + packer.mono(m) == shifted
        assert not (shifted - ps) & packer.mask
        divides = cs == ct and mono_divides(es, et)
        assert (not (pt - ps) & packer.mask) == divides
        # Bare terms: the lcm and its degree within one component, and
        # whether two monomials share a variable.
        lcm = tuple(map(max, es, et))
        bare_lcm = packer.lcm(packer.bare(ps), packer.bare(_packed(packer, (cs, et))))
        assert bare_lcm == packer.bare(_packed(packer, (cs, lcm)))
        assert packer.degree(bare_lcm) == sum(lcm)
        assert packer.coprime(ps, pt) == (not any(map(min, es, et)))


def test_a_term_too_large_for_its_fields_raises():
    packer = gb._Packer(2, 1, 3)  # 2-bit fields: degree 3 fits, degree 4 does not
    assert packer.unpack(packer.pack({(0, (3, 0)): 1})) == {(0, (3, 0)): 1}
    for e in ((4, 0), (2, 2), (0, 7)):
        with pytest.raises(OverflowError):
            packer.pack({(0, e): 1})
        with pytest.raises(OverflowError):
            packer.mono(e)
    # A bare lcm has no weight fields, so it holds a degree up to twice the
    # bound: here x^3 y^3.
    x3, y3 = (packer.bare(_packed(packer, (0, e))) for e in ((3, 0), (0, 3)))
    assert packer.degree(packer.lcm(x3, y3)) == 6
    assert packer.coprime(x3, y3)


def test_generator_at_the_exponent_bound():
    R = PolyRing(("x", "y"), F)
    gens = [parse_poly(t, R).vec for t in ("x^1000 - y^1000", "x*y")]
    assert gb.buchberger(gens[:1], (0,), F)[0] == gens[:1]
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger(gens, (0,), F)
    # y * (x^1000 - y^1000) - x^999 * (x*y) = -y^1001, in degree 1001; the
    # pairs with y^1001 have degrees 1002 and 2001, so the cap must admit them.
    basis, _ = gb.buchberger(gens, (0,), F, degree_cap=2001)
    assert [Polynomial(R, v) for v in basis] == [
        parse_poly(t, R) for t in ("y^1000*y", "x^1000 - y^1000", "x*y")
    ]
    for text, remainder in [
        ("x^1000", "y^1000"),
        ("x^1000*x", "0"),
        ("x^1000*x^1000", "0"),
        ("y^1000 + x^999", "y^1000 + x^999"),
    ]:
        v = parse_poly(text, R).vec
        rem = Polynomial(R, gb.normal_forms([v], basis, F)[0])
        assert rem == parse_poly(remainder, R)


def test_a_negative_twist_reaches_the_cap():
    # In S(3) + S(1): the S-pair of x^4 e0 + z^2 e1 and y^5 e0 has monomial
    # degree 9 and twisted degree 6; it leaves y^5 z^2 e1.
    R = PolyRing(("x", "y", "z"), F)
    gens = [{(0, (4, 0, 0)): 1, (1, (0, 0, 2)): 1}, {(0, (0, 5, 0)): 1}]
    expected = [{(1, (0, 5, 2)): 1}, {(0, (0, 5, 0)): 1}, gens[0]]
    assert gb.buchberger(gens, (-3, -1), F, degree_cap=6)[0] == expected
    assert gb.buchberger(gens, (0, 2), F, degree_cap=9)[0] == expected
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger(gens, (-3, -1), F, degree_cap=5)


def _syzygies(texts, R):
    cols = [parse_poly(t, R).vec for t in texts]
    return gb.syzygies(cols, (0,), R)


def test_koszul_syzygy_of_two_variables():
    R = PolyRing(("x", "y"), F)
    syz = _syzygies(["x", "y"], R)
    assert len(syz) == 1
    # the Koszul syzygy (y, -x) up to normalization
    sx, sy = vec_to_column(syz[0], R, 2)
    assert sx * parse_poly("x", R) + sy * parse_poly("y", R) == R.zero


def test_syzygies_of_three_variables_annihilate():
    R = PolyRing(("x", "y", "z"), F)
    syz = _syzygies(["x", "y", "z"], R)
    assert len(syz) == 3
    gens = [parse_poly(t, R) for t in ("x", "y", "z")]
    for s in syz:
        total = R.zero
        for c, g in zip(vec_to_column(s, R, 3), gens):
            total = total + c * g
        assert total.is_zero()


def test_syzygy_of_single_nonzerodivisor_is_empty():
    R = PolyRing(("x", "y"), F)
    assert _syzygies(["x^2 + y^2"], R) == []


def test_inhomogeneous_input_rejected():
    R = PolyRing(("x", "y"), F)
    v = parse_poly("x + x^2", R).vec
    with pytest.raises(gb.InhomogeneousError):
        gb.buchberger([v], (0,), F)


def test_degree_cap_reports_diagnostic():
    R = PolyRing(("x", "y", "z"), F)
    vecs = [
        parse_poly(t, R).vec
        for t in ("x^5 - y^4*z", "x^2*y^3 - z^5")
    ]
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger(vecs, (0,), F, degree_cap=5)


def test_a_generator_in_the_span_forms_no_pair():
    # x^2*z^20 + x*y*z^20 = z^20 * x^2 + z^20 * x*y enters at degree 22,
    # after the pair of x^2 and x*y, reduces to zero and forms no pair, so
    # no pair above the cap is processed.  Without x*y it leaves x*y*z^20,
    # whose pair with x^2 has degree 23.
    R = PolyRing(("x", "y", "z"), F101)
    gens = [parse_poly(t, R).vec for t in ("x^2", "x*y", "x^2*z^20 + x*y*z^20")]
    basis, kept = gb.buchberger(gens, (0,), F101, degree_cap=10)
    assert basis == kept == gens[:2]
    with pytest.raises(gb.DegreeCapExceeded):
        gb.buchberger([gens[0], gens[2]], (0,), F101, degree_cap=10)


def test_modulo_contains_a_unit_exactly_for_members():
    # v lies in span(cols) exactly when the colon ideal (span(cols) : v),
    # as generated by modulo, contains a nonzero constant.
    R = PolyRing(("x", "y"), F)
    cols = [
        parse_poly("x", R).vec,
        parse_poly("y", R).vec,
    ]
    constant = (0, 0)

    def is_member(text):
        v = parse_poly(text, R).vec
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
def _submodules(draw, coeffs=st.integers(1, 100)):
    """Homogeneous generators of a submodule of a free module of rank 1 or 2
    over k[x, y, z], F_101 by default, and one homogeneous probe vector."""
    rank = draw(st.integers(1, 2))
    twists = tuple(draw(st.lists(st.integers(0, 1), min_size=rank, max_size=rank)))

    def vector(degree):
        v = {}
        for comp, twist in enumerate(twists):
            if degree >= twist:
                monos = st.sampled_from(_monomials(degree - twist))
                for e in draw(st.lists(monos, max_size=3, unique=True)):
                    v[(comp, e)] = draw(coeffs)
        return v

    gens = [vector(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    return rank, twists, gens, vector(draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(_submodules())
def test_buchberger_gives_a_reduced_basis_with_path_independent_remainders(case):
    rank, twists, gens, probe = case
    basis, _ = gb.buchberger(gens, twists, F101)
    # Each output vector's first key is its lead: its largest term, term
    # over position (the lower component wins ties).
    leads = [next(iter(g)) for g in basis]
    for i, (g, lt) in enumerate(zip(basis, leads)):
        assert lt == max(g, key=lambda t: (grevlex_key(t[1]), -t[0]))
        assert g[lt] == 1
        for j, (comp, e) in enumerate(leads):
            if j != i:
                assert not any(c == comp and mono_divides(e, t) for c, t in g)
    for v in gens + [probe]:
        first = gb.normal_forms([v], basis, F101)[0]
        assert first == gb.normal_forms([v], basis[::-1], F101)[0]
        assert not first or v is probe


def _add_shifted(out, g, shift, factor, field):
    """out += factor * x^shift * g on tuple terms, in place."""
    for (c, e0), v in g.items():
        u = (c, tuple(a + b for a, b in zip(e0, shift)))
        x = field.add(out.get(u, field.zero), field.mul(factor, v))
        if x == field.zero:
            out.pop(u, None)
        else:
            out[u] = x


def _reference_normal_form(f, basis, field, split=None):
    """Plain division on (component, exponent tuple) terms, in the order of
    the textbook comparator _term_cmp(split): each step reduces the largest
    term left by the first basis element whose lead divides it."""
    order = functools.cmp_to_key(_term_cmp(split))
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
        factor = field.neg(field.div(work[t], g[(lead_comp, lead_e)]))
        _add_shifted(work, g, tuple(b - a for a, b in zip(lead_e, e)), factor, field)
    return rem


def _s_vector(f, g, field, order):
    """The S-vector of f and g on tuple terms, or None when their leads
    lie in different components."""
    (cf, ef), (cg, eg) = max(f, key=order), max(g, key=order)
    if cf != cg:
        return None
    lcm = tuple(map(max, ef, eg))
    s = {}
    for v, e, sign in ((f, ef, field.one), (g, eg, field.neg(field.one))):
        shift = tuple(a - b for a, b in zip(lcm, e))
        _add_shifted(s, v, shift, field.div(sign, v[(cf, e)]), field)
    return s


def _reference_buchberger(gens, twists, field, split=None):
    """The reduced Groebner basis by all-pairs Buchberger, with no pair
    criterion, on tuple terms and _reference_normal_form; in buchberger's
    output order, each vector's terms descending and the vectors
    descending by their terms.  Pairs go by ascending degree, which keeps
    the basis small."""
    order = functools.cmp_to_key(_term_cmp(split))
    basis, heap = [], []

    def add(v):
        comp, e = max(v, key=order)
        for k, g in enumerate(basis):
            lcm = map(max, e, max(g, key=order)[1])
            heapq.heappush(heap, (sum(lcm) + twists[comp], k, len(basis)))
        basis.append(v)

    for g in gens:
        if g:
            add(g)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = _s_vector(basis[i], basis[j], field, order)
        r = _reference_normal_form(s, basis, field, split) if s else {}
        if r:
            add(r)
    leads = [max(g, key=order) for g in basis]

    def divides(s, t):
        return s[0] == t[0] and all(a <= b for a, b in zip(s[1], t[1]))

    minimal = [
        g
        for k, (g, lead) in enumerate(zip(basis, leads))
        if not any(divides(other, lead) and (other != lead or j < k) for j, other in enumerate(leads) if j != k)
    ]
    reduced = []
    for k, g in enumerate(minimal):
        r = _reference_normal_form(g, minimal[:k] + minimal[k + 1:], field, split)
        terms = sorted(r, key=order, reverse=True)
        reduced.append({t: field.div(r[t], r[terms[0]]) for t in terms})
    return sorted(reduced, key=lambda g: [order(t) for t in g], reverse=True)


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
    assert list(gb.normal_forms([f], basis, field)[0].items()) == list(expected.items())


_FIELDS = [(F101, st.integers(1, 100)), (RationalField(), st.fractions(-9, 9, max_denominator=9).filter(bool))]


@pytest.mark.parametrize("field, coeffs", _FIELDS, ids=["F101", "QQ"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_buchberger_matches_an_all_pairs_reference(field, coeffs, data):
    # Pair pruning must not change the basis: it equals an all-pairs
    # Buchberger, and every S-pair of it reduces to zero, under a division
    # written here on tuple terms.
    rank, twists, gens, probe = data.draw(_submodules(coeffs))
    gens.append(probe)
    split = data.draw(st.sampled_from([None, 0, 1])) if rank == 2 else None
    basis, _ = gb.buchberger(gens, twists, field, split=split)
    expected = _reference_buchberger(gens, twists, field, split)
    assert [list(g.items()) for g in basis] == [list(g.items()) for g in expected]
    order = functools.cmp_to_key(_term_cmp(split))
    for f, g in itertools.combinations(basis, 2):
        s = _s_vector(f, g, field, order)
        assert not s or not _reference_normal_form(s, basis, field, split)


@settings(max_examples=60, deadline=None)
@given(_submodules(), st.data())
def test_extending_a_basis_equals_building_it_at_once(case, data):
    rank, twists, gens, probe = case
    vecs = gens + [probe]
    cut = data.draw(st.integers(0, len(vecs)))
    old, new = vecs[:cut], vecs[cut:]
    extended, _ = gb.buchberger(new, twists, F101, known=gb.buchberger(old, twists, F101)[0])
    at_once, kept = gb.buchberger(old + new, twists, F101)
    assert [list(g.items()) for g in extended] == [list(g.items()) for g in at_once]
    # The kept generators span the same module.
    again, _ = gb.buchberger(kept, twists, F101)
    assert [list(g.items()) for g in again] == [list(g.items()) for g in at_once]


def test_syzygies_of_the_pfaffians_reduce_a_pinned_number_of_s_vectors(monkeypatch):
    # The five 4x4 Pfaffians of a generic 5x5 skew matrix, in 10 variables;
    # syzygies makes one buchberger call on them.  Counted: the S-vectors
    # that call reduces, and those that reduce to zero.
    names = [f"a{i}{j}" for i, j in itertools.combinations(range(5), 2)]
    R = PolyRing(tuple(names), F)
    pfaffians = [
        parse_poly(f"a{i}{j}*a{k}{l} - a{i}{k}*a{j}{l} + a{i}{l}*a{j}{k}", R).vec
        for i, j, k, l in itertools.combinations(range(5), 4)
    ]
    remainders, counts = [], []
    reduce, interreduce = gb._reduce, gb.interreduce

    def counting_reduce(*args):
        remainders.append(reduce(*args))
        return remainders[-1]

    def counting_interreduce(*args):
        counts.append((len(remainders), sum(not r for r in remainders)))
        return interreduce(*args)

    monkeypatch.setattr(gb, "_reduce", counting_reduce)
    monkeypatch.setattr(gb, "interreduce", counting_interreduce)
    syz = gb.syzygies(pfaffians, (0,), R)
    assert len(syz) == 12
    # Counted with them, the five generators, each reduced once as it
    # enters, none to zero; so 19 S-vectors, 7 of them to zero.  With the
    # product criterion alone: 25 S-vectors, 13 of them to zero.
    assert counts == [(24, 7)]
