from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import grevlex_textbook
from dgkoszul import PrimeField, RationalField, PolyRing
from dgkoszul.fields import FieldError
from dgkoszul.poly import RingMismatchError, grevlex_key, mono_mul

F = PrimeField()
QQ = RationalField()


def test_default_prime():
    assert F.p == 32003


def test_prime_validation():
    with pytest.raises(FieldError):
        PrimeField(32001)  # 3 * 10667


scalars_p = st.integers(min_value=0, max_value=F.p - 1)
scalars_q = st.fractions(max_denominator=20)


@settings(max_examples=100, deadline=None)
@given(scalars_p, scalars_p, scalars_p)
def test_field_axioms_prime(a, b, c):
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


@settings(max_examples=100, deadline=None)
@given(scalars_q, scalars_q, scalars_q)
def test_field_axioms_rationals(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    if a != 0:
        assert QQ.mul(a, QQ.inv(a)) == Fraction(1)


# ---- the monomial order ----


def _compare(a, b):
    """-1, 0 or 1 as a <, =, > b in grevlex."""
    ka, kb = grevlex_key(a), grevlex_key(b)
    return (ka > kb) - (ka < kb)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(0, 6)] * 3),
    st.tuples(*[st.integers(0, 6)] * 3),
)
def test_grevlex_matches_textbook_definition(a, b):
    assert _compare(a, b) == grevlex_textbook(a, b)


def test_grevlex_y2_beats_xz():
    # y^2 vs x*z in k[x,y,z]
    assert _compare((0, 2, 0), (1, 0, 1)) == 1


def test_order_reflexive():
    assert _compare((1, 2, 3), (1, 2, 3)) == 0


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(0, 5)] * 3),
    st.tuples(*[st.integers(0, 5)] * 3),
    st.tuples(*[st.integers(0, 5)] * 3),
)
def test_grevlex_is_multiplicative(a, b, c):
    before = _compare(a, b)
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert _compare(ac, bc) == before


# ---- polynomial arithmetic ----

def test_ring_context_mismatch():
    r1 = PolyRing(("x", "y"), F)
    r2 = PolyRing(("x", "z"), F)
    with pytest.raises(RingMismatchError):
        r1.var(0) + r2.var(0)


def test_product_of_sum_and_difference():
    r = PolyRing(("x", "y"), F)
    x, y = r.var(0), r.var(1)
    assert (x + y) * (x - y) == x * x - y * y


@pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
def test_power_equals_repeated_product(n):
    r = PolyRing(("x", "y"), F)
    p = r.var(0) + r.var(1)
    product = r.one
    for _ in range(n):
        product = product * p
    assert p**n == product


def test_negative_power_rejected():
    r = PolyRing(("x",), F)
    with pytest.raises(ValueError):
        r.var(0) ** -1


def test_multiplication_by_zero_absorbs():
    r = PolyRing(("x", "y"), F)
    p = r.var(0) * r.var(1) + r.const(7)
    assert (p * r.zero).is_zero()


def test_small_characteristic_wraps():
    f5 = PrimeField(5)
    r = PolyRing(("x",), f5)
    x = r.var(0)
    assert x.scale(3) * x.scale(2) == x * x  # 6 = 1 mod 5


def test_homogeneous_degree():
    r = PolyRing(("x", "y"), F)
    x, y = r.var(0), r.var(1)
    assert (x * y).homogeneous_degree() == 2
    assert (x + x * y).homogeneous_degree() is None
    assert r.zero.homogeneous_degree() is None


def test_negative_rational_coefficients_print_as_differences():
    r = PolyRing(("x", "y"), QQ)
    p = r.poly({(1, 0): Fraction(1), (0, 1): Fraction(-2), (0, 0): Fraction(-1, 3)})
    assert str(p) == "x - 2*y - 1/3"
    assert str(-p) == "-x + 2*y + 1/3"
    assert str(r.poly({(1, 0): Fraction(1), (0, 1): Fraction(-1)})) == "x - y"


# ---- the reference: a ring element as an exponent -> coefficient dict ----
# Polynomial's arithmetic and printing from when it was such a dict with
# term loops of its own.  Polynomial is now a rank-1 module vector and must
# agree with it term for term, coefficient types included.


def _ref_add(f, a, b):
    out = dict(a)
    for e, c in b.items():
        s = f.add(out.get(e, f.zero), c)
        if s == f.zero:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def _ref_neg(f, a):
    return {e: f.neg(c) for e, c in a.items()}


def _ref_mul(f, a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = mono_mul(ea, eb)
            s = f.add(out.get(e, f.zero), f.mul(ca, cb))
            if s == f.zero:
                out.pop(e, None)
            else:
                out[e] = s
    return out


def _ref_mul_term(f, a, e, c):
    if c == f.zero:
        return {}
    return {mono_mul(e, e0): f.mul(c, v) for e0, v in a.items()}


def _ref_sort_key(a):
    return tuple(sorted(((grevlex_key(e), repr(c)) for e, c in a.items()), reverse=True))


def _ref_text(names, one, a):
    if not a:
        return "0"
    pieces = []
    for e in sorted(a, key=grevlex_key, reverse=True):
        c = a[e]
        body = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(names, e) if k
        )
        if not body:
            pieces.append(str(c))
        elif c == one:
            pieces.append(body)
        elif c == -one:
            pieces.append("-" + body)
        else:
            pieces.append(f"{c}*{body}")
    text = pieces[0]
    for term in pieces[1:]:
        text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text


def _terms(p):
    """p as the reference form: exponent -> coefficient."""
    return {e: c for (_, e), c in p.vec.items()}


def _typed(a):
    return {e: (c, type(c)) for e, c in a.items()}


def _sign(a, b):
    return (a > b) - (a < b)


_FIELDS = {
    # F_5: few coefficient values, so sums and products cancel often.
    "F_5": (PrimeField(5), st.integers(1, 4), st.integers(0, 4)),
    "Q": (
        QQ,
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    ),
}


@pytest.mark.parametrize("name", _FIELDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_polynomial_arithmetic_matches_the_dict_reference(name, data):
    f, coeffs, scalars = _FIELDS[name]
    r = PolyRing(("x", "y"), f)
    monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
    a, b = (data.draw(st.dictionaries(monos, coeffs, max_size=5)) for _ in range(2))
    c, e = data.draw(scalars), data.draw(monos)
    p, q = r.poly(a), r.poly(b)
    assert _typed(_terms(p)) == _typed(a)
    cases = [
        (p + q, _ref_add(f, a, b)),
        (p - q, _ref_add(f, a, _ref_neg(f, b))),
        (-p, _ref_neg(f, a)),
        (p * q, _ref_mul(f, a, b)),
        (p**2, _ref_mul(f, a, a)),
        (p.scale(c), _ref_mul_term(f, a, (0, 0), c)),
        (p.mul_term(e, c), _ref_mul_term(f, a, e, c)),
    ]
    for got, want in cases:
        assert _typed(_terms(got)) == _typed(want)
        assert str(got) == _ref_text(r.variables, f.one, want)
    assert _sign(p.sort_key(), q.sort_key()) == _sign(_ref_sort_key(a), _ref_sort_key(b))
    assert (p == q) == (a == b)
    same = r.poly(dict(reversed(list(a.items()))))
    assert same == p and hash(same) == hash(p)
