from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dgkoszul import PrimeField, PolyRing, parse_poly
from dgkoszul.parse import ParseError
from dgkoszul.poly import poly_to_text

F = PrimeField()
R3 = PolyRing(("x", "y", "z"), F)


def test_basic_terms():
    p = parse_poly("x*y - z^2", R3)
    assert p.vec == {(0, (1, 1, 0)): 1, (0, (0, 0, 2)): F.p - 1}


def test_like_terms_merge():
    assert parse_poly("x + x", R3) == parse_poly("2*x", R3)


def test_commutativity_cancels():
    assert parse_poly("x^2*y - y*x^2", R3).is_zero()


def test_integer_literals_reduce_into_field():
    f5 = PrimeField(5)
    r = PolyRing(("x",), f5)
    assert parse_poly("7*x", r) == parse_poly("2*x", r)


def test_parentheses_and_products():
    assert parse_poly("(x + y)*(x - y)", R3) == parse_poly("x^2 - y^2", R3)


def test_unknown_variable_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_poly("x + q", R3)
    assert err.value.pos == 4


def test_syntax_error_is_positioned():
    with pytest.raises(ParseError) as err:
        parse_poly("x + * y", R3)
    assert err.value.pos == 4


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_poly("x y", R3)


def test_fraction_syntax_rejected():
    with pytest.raises(ParseError):
        parse_poly("1/2 * x", R3)


FIXTURE_CORPUS = [
    "x*y - z^2",
    "x + x",
    "3*x^2*y - 7*z + 1",
    "(x + y + z)*(x + y + z)",
    "x^4 - 2*x^2*y^2 + y^4",
    "0",
    "32002*x + 1",
]


@pytest.mark.parametrize("text", FIXTURE_CORPUS)
def test_round_trip_fixture_corpus(text):
    p = parse_poly(text, R3)
    assert parse_poly(poly_to_text(p), R3) == p


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        st.integers(1, F.p - 1),
        max_size=6,
    )
)
def test_round_trip_random(terms):
    p = R3.poly(dict(terms))
    assert parse_poly(poly_to_text(p), R3) == p
