from __future__ import annotations

import pytest

from dgkoszul import PrimeField, parse_poly, quotient_ring_from_strings

FIELD = PrimeField()


def ring(*variables, ideal=(), field=FIELD):
    return quotient_ring_from_strings(variables, list(ideal), field)


def poly(text, Q):
    return parse_poly(text, Q.poly_ring)


def grevlex_textbook(a, b):
    """Independent comparator, -1, 0 or 1: higher total degree wins; on
    ties the monomial with the smaller exponent in the last differing
    variable is larger (the textbook grevlex definition)."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for i in reversed(range(len(a))):
        if a[i] != b[i]:
            return 1 if a[i] < b[i] else -1
    return 0


@pytest.fixture
def field():
    return FIELD
