"""Cross-checks between the symbolic (Groebner) path and independent
linear-algebra counting, plus field-level cross-validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from dgkoszul import FPModule, PrimeField, RationalField, koszul, dg_from_ring, subquotient
from dgkoszul import groebner as gb
from dgkoszul.complexes import (
    _monomials_of_degree,
    betti_table,
    free_resolution,
    koszul_complex,
    oracle_basis_size,
    truncation_oracle,
)
from dgkoszul.jobs import MAX_ORACLE_BASIS
from dgkoszul.linalg import Echelon
from dgkoszul.parse import parse_poly
from dgkoszul.poly import PolyRing, column_to_vec, mono_mul
from dgkoszul.rings import QuotientRing, quotient_ring_from_strings

F = PrimeField()


def _graded_piece_rank(gens, ring_, t):
    """rank of the degree-t piece of the ideal generated by gens, by brute
    expansion over the monomial basis (no Groebner anywhere)."""
    echelon = Echelon(ring_.field)
    basis = _monomials_of_degree(ring_.nvars, t)
    index = {m: i for i, m in enumerate(basis)}
    for g in gens:
        d = g.homogeneous_degree()
        if d is None or d > t:
            continue
        for m in _monomials_of_degree(ring_.nvars, t - d):
            row = {}
            for (_, e), c in g.vec.items():
                k = index[mono_mul(m, e)]
                row[k] = ring_.field.add(row.get(k, ring_.field.zero), c)
            echelon.add(row)
    return echelon.rank, len(basis)


IDEALS = [
    (("x", "y"), ["x*y"]),
    (("x", "y"), ["x^2", "x*y"]),
    (("x", "y", "z"), ["x^2", "x*y", "y^2"]),
    (("x", "y", "z", "w"), ["x*y - z*w"]),
    (("x", "y", "z"), ["x^2 - y*z"]),
]


@pytest.mark.parametrize("variables,ideal", IDEALS)
def test_hilbert_series_matches_brute_force_counts(variables, ideal):
    Q = quotient_ring_from_strings(variables, ideal, F)
    gens = [parse_poly(t, Q.poly_ring) for t in ideal]
    hs = Q.hilbert_series()
    for t in range(0, 11):
        rank, total = _graded_piece_rank(gens, Q.poly_ring, t)
        assert hs.coefficient(t) == total - rank, (ideal, t)


@pytest.mark.parametrize("variables,ideal", IDEALS)
def test_membership_agrees_with_graded_rank(variables, ideal):
    # NF(f) == 0 iff f lies in the ideal, cross-checked by rank growth
    Q = quotient_ring_from_strings(variables, ideal, F)
    gens = [parse_poly(t, Q.poly_ring) for t in ideal]
    probes = ["x^2*y", "x*y + y^2", "x^3", "y^4"]
    for text in probes:
        f = parse_poly(text, Q.poly_ring)
        d = f.homogeneous_degree()
        if d is None or d > 8:
            continue
        rank_without, total = _graded_piece_rank(gens, Q.poly_ring, d)
        rank_with, _ = _graded_piece_rank(gens + [f], Q.poly_ring, d)
        in_ideal_linear = rank_with == rank_without
        assert Q.is_zero(f) == in_ideal_linear, (ideal, text)


def test_syzygy_module_graded_dimensions():
    # syz(x, y, z) over k[x,y,z]: graded pieces match the rank-nullity
    # count dim ker_t = 3 * dim S_{t-1} - dim (x,y,z)_t
    Q = quotient_ring_from_strings(("x", "y", "z"), [], F)
    R = Q.poly_ring
    gens = [parse_poly(t, R) for t in ("x", "y", "z")]
    cols = [g.vec for g in gens]
    syz = gb.syzygies(cols, (0,), R)
    syz_module = subquotient(FPModule(Q, (1, 1, 1)), syz)
    hs = syz_module.hilbert_series()
    for t in range(0, 9):
        monos_prev = len(_monomials_of_degree(3, t - 1)) if t >= 1 else 0
        rank_ideal, _ = _graded_piece_rank(gens, R, t)
        expected = 3 * monos_prev - rank_ideal
        assert hs.coefficient(t) == expected, t


def test_minimize_preserves_hilbert_series():
    Q = quotient_ring_from_strings(("x", "y"), ["x*y"], F)
    R = Q.poly_ring
    redundant = FPModule(
        Q,
        (0, 1),
        [
            column_to_vec((parse_poly("x", R), parse_poly("1", R))),
            column_to_vec((parse_poly("y^2", R), parse_poly("y", R))),
        ],
    )
    assert redundant.minimize().hilbert_series() == redundant.hilbert_series()


def test_prime_field_and_rationals_agree_on_homology():
    for field in (PrimeField(), RationalField()):
        Q = quotient_ring_from_strings(("x", "y"), ["x*y"], field)
        K = koszul(dg_from_ring(Q), ["x", "y"])
        table = {
            i: hs.to_json() for i, hs in sorted(K.homology_table().items())
        }
        if field.kind == "prime-field":
            reference = table
    assert table == reference


def _koszul_tor(Q):
    """{i: {j: dim H^{-i}(K(x; Q))_j}}, which is Tor^S_i(Q, k)_j.  Koszul
    homology is killed by the variables, so each series is a polynomial.
    The bare Koszul complex reads its homology from the Groebner bases of
    its differentials, not from Q's resolution as dgring.koszul would."""
    K = koszul_complex(Q, [Q.poly_ring.var(i) for i in range(Q.nvars)])
    tor = {}
    for i, hs in K.homology_table().items():
        num, pole = hs.reduced()
        assert pole == 0
        tor[-i] = {j: c for j, c in num.items() if c}
    return K, tor


@st.composite
def _forms(draw):
    """2-4 forms of degree 2 or 3 in 3 or 4 variables over F_101, and a
    linear form."""
    nvars = draw(st.integers(3, 4))
    R = PolyRing(("x", "y", "z", "w")[:nvars], PrimeField(101))
    coeffs = st.integers(1, 100)

    def form(degree):
        monos = st.sampled_from(_monomials_of_degree(nvars, degree))
        return R.poly(draw(st.dictionaries(monos, coeffs, min_size=1, max_size=4)))

    forms = [form(draw(st.integers(2, 3))) for _ in range(draw(st.integers(2, 4)))]
    return R, forms, form(1)


@settings(max_examples=25, deadline=None)
@given(_forms())
def test_tor_from_the_resolution_matches_koszul_homology(case):
    # Tor^S_i(M, k)_j two ways: the Betti table of the minimal free
    # resolution of M over S, and Koszul homology on the variables, for
    # M = Q = S/J and M = Q/(l) = S/(J, l).  The truncation oracle, which
    # uses no Groebner basis, agrees with the Koszul homology of Q in every
    # degree up to one above reg + n, past its last nonzero entry.
    R, forms, linear = case
    Q = QuotientRing(R, forms)
    K, tor = _koszul_tor(Q)
    assert betti_table(free_resolution(FPModule(Q, (0,)))) == tor
    reg = max(j - i for i, row in tor.items() for j in row)
    d_max = reg + R.nvars + 1
    assert oracle_basis_size(K, d_max) <= MAX_ORACLE_BASIS
    oracle = truncation_oracle(K, d_max)
    assert oracle == {
        i: {t: tor.get(-i, {}).get(t, 0) for t in dims} for i, dims in oracle.items()
    }
    M = FPModule.quotient_by_ideal(Q, [linear])
    _, tor_of_m = _koszul_tor(QuotientRing(R, forms + [linear]))
    assert betti_table(free_resolution(M)) == tor_of_m


@st.composite
def _ring_and_basis(draw):
    """1-3 quadrics in 3 or 4 variables over F_101, and a basis of S_1: the
    rows of a unit lower-triangular matrix, with scaled diagonal, in
    permuted coordinates."""
    nvars = draw(st.integers(3, 4))
    R = PolyRing(("x", "y", "z", "w")[:nvars], PrimeField(101))
    monos = st.sampled_from(_monomials_of_degree(nvars, 2))
    coeffs = st.integers(1, 100)
    quadrics = [
        R.poly(draw(st.dictionaries(monos, coeffs, min_size=1, max_size=4)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    perm = draw(st.permutations(range(nvars)))
    unit = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
    forms = []
    for i in range(nvars):
        row = {unit[perm[j]]: draw(st.integers(0, 100)) for j in range(i)}
        row[unit[perm[i]]] = draw(coeffs)
        forms.append(R.poly({e: c for e, c in row.items() if c}))
    return QuotientRing(R, quadrics), forms


@settings(max_examples=25, deadline=None)
@given(_ring_and_basis())
def test_koszul_homology_on_a_basis_of_linear_forms_is_the_betti_table(case):
    # dgring.koszul reads these tables from Q's minimal resolution; the bare
    # Koszul complex computes them from its differentials.
    Q, forms = case
    table = koszul(dg_from_ring(Q), forms).homology_table()
    assert table == koszul_complex(Q, forms).homology_table()
