from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

from conftest import FIELD, ring
from dgkoszul.hilbert import NEG_INF, lead_module_series
from dgkoszul.poly import PolyRing


def _S(nvars):
    """k[x0..x(nvars-1)], the ring a monomial ideal's exponents live in."""
    return PolyRing([f"x{i}" for i in range(nvars)], FIELD)


def _quotient_series(gens, S):
    """HS(S/I) for the monomial ideal I generated by gens: a module of
    rank 1 whose leads all lie in component 0, untwisted."""
    return lead_module_series([(0, e) for e in gens], 1, (0,), S)


def test_free_rank_one_over_two_variables():
    hs = _quotient_series([], _S(2))
    assert hs.reduced() == ({0: 1}, 2)
    assert hs.coefficients(4) == [1, 2, 3, 4, 5]


def test_hypersurface_series():
    hs = _quotient_series([(1, 0)], _S(2))  # k[x,y]/(x)
    assert hs.reduced() == ({0: 1}, 1)


def test_finite_length_series():
    hs = _quotient_series([(2,)], _S(1))  # k[x]/(x^2)
    num, pole = hs.reduced()
    assert pole == 0 and num == {0: 1, 1: 1}


def _independent_set_dim(gens, nvars):
    """Reference Krull dimension of S/I for a monomial ideal I: the size of
    the largest variable subset containing no generator's support (-inf for
    the unit ideal).  Enumerates subsets, so only for small nvars."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    if frozenset() in supports:
        return NEG_INF
    for size in range(nvars, -1, -1):
        for sub in map(frozenset, combinations(range(nvars), size)):
            if not any(s <= sub for s in supports):
                return size


def test_monomial_dim_on_mixed_ideal():
    # (x*y, x*z) in k[x,y,z]: dimension 2
    gens = [(1, 1, 0), (1, 0, 1)]
    assert _quotient_series(gens, _S(3)).pole_order == 2


def test_irrelevant_ideal_is_artinian():
    gens = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert _quotient_series(gens, _S(3)).pole_order == 0


def test_zero_ideal_full_dimension():
    assert _quotient_series([], _S(4)).pole_order == 4


def test_unit_ideal_sentinel():
    assert _quotient_series([(0, 0)], _S(2)).pole_order == NEG_INF


@st.composite
def _monomial_ideals(draw):
    nvars = draw(st.integers(1, 7))
    expo = st.tuples(*[st.integers(0, 2)] * nvars)
    return draw(st.lists(expo, max_size=6)), nvars


@settings(max_examples=200, deadline=None)
@given(_monomial_ideals())
def test_pole_order_is_the_largest_independent_set(ideal):
    gens, nvars = ideal
    assert _quotient_series(gens, _S(nvars)).pole_order == _independent_set_dim(gens, nvars)


def test_series_arithmetic_and_twist():
    a = _quotient_series([], _S(1))  # 1/(1-t)
    shifted = a.shift(2)
    assert shifted.coefficients(4) == [0, 0, 1, 1, 1]
    diff = a - a.shift(1)
    assert diff.reduced() == ({0: 1}, 0)


def test_equal_up_to_twist():
    a = _quotient_series([], _S(2))
    assert a.shift(3).equal_up_to_twist(a) == 3
    assert a.equal_up_to_twist(a.shift(1)) == -1
    b = _quotient_series([(1, 0)], _S(2))
    assert a.equal_up_to_twist(b) is None


def test_quotient_ring_dimensions():
    assert ring("x", "y", ideal=["x*y"]).dim() == 1
    assert ring("x", "y", "z", "w", ideal=["x*y - z*w"]).dim() == 3
    assert ring("x", "y", ideal=["x^2", "x*y"]).dim() == 1
    assert ring("x", "y", "z").dim() == 3


def test_quotient_ring_series():
    Q = ring("x", "y", ideal=["x*y"])
    assert Q.hilbert_series().coefficients(4) == [1, 2, 2, 2, 2]
