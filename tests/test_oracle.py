"""The truncation oracle against a reference kept here: the same rank-nullity
count in the full ambient coordinates of S, with J's multiples of every
basis vector among each term's relations.  The oracle works modulo J in
A_d = S_d/J_d; the two share only linalg.Echelon, which test_linalg.py
checks against dense elimination."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly, ring
from dgkoszul import (
    Complex,
    FPModule,
    PolyRing,
    PrimeField,
    QuotientRing,
    RationalField,
    koszul_complex,
    tensor_complexes,
    truncation_oracle,
)
from dgkoszul import groebner as gb
from dgkoszul.complexes import _monomials_of_degree
from dgkoszul.dgring import koszul, trivial_extension
from dgkoszul.linalg import Echelon
from dgkoszul.poly import mono_mul, vec_degree


def reference_oracle(C: Complex, d_max: int) -> dict:
    """dim H^i_t from the monomial basis of each term's ambient module,
    modulo the monomial multiples of all of its relation columns (the
    relations and J times the basis)."""
    ring_ = C.ring
    field = ring_.field
    floor = min([0] + [w for t in C.terms.values() for w in t.twists])
    support = C.support
    result = {i: {} for i in support}
    for t_deg in range(floor, d_max + 1):
        bases, echelons, relation_rows = {}, {}, {}
        for i in support:
            term = C.terms[i]
            basis = [
                (j, mono)
                for j, w in enumerate(term.twists)
                for mono in _monomials_of_degree(ring_.nvars, t_deg - w)
            ]
            index = {bm: k for k, bm in enumerate(basis)}
            relations = Echelon(field)
            relation_rows[i] = []
            for col in term.relation_columns():
                col_deg = vec_degree(col, term.twists)
                for mono in _monomials_of_degree(ring_.nvars, t_deg - col_deg):
                    row = {}
                    for (comp, e), c in col.items():
                        pos = index[(comp, mono_mul(mono, e))]
                        row[pos] = field.add(row.get(pos, 0), c)
                    relations.add(row)
                    relation_rows[i].append(row)
            bases[i] = (basis, index)
            echelons[i] = relations
        dims = {i: len(bases[i][0]) - echelons[i].rank for i in support}
        ranks = {}
        for i in support:
            if i not in C.diffs or (i + 1) not in echelons:
                continue
            image = Echelon(field)
            for row in relation_rows[i + 1]:
                image.add(row)
            _, index_t = bases[i + 1]
            for pos, (j, mono) in enumerate(bases[i][0]):
                if pos in echelons[i].rows:
                    continue
                img = {}
                for (r, e), c in C.diffs[i][j].items():
                    k = index_t[(r, mono_mul(mono, e))]
                    img[k] = field.add(img.get(k, 0), c)
                image.add(img)
            ranks[i] = image.rank - echelons[i + 1].rank
        for i in support:
            result[i][t_deg] = dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0)
    return result


VARIABLES = ("x", "y", "z")
FIELDS = {"F101": PrimeField(101), "QQ": RationalField()}


def _forms(S: PolyRing, degree: int, coeffs):
    """Homogeneous forms of one degree (zero included) with coefficients
    drawn from coeffs."""
    monos = _monomials_of_degree(S.nvars, degree)
    field = S.field
    return st.lists(coeffs, min_size=len(monos), max_size=len(monos)).map(
        lambda cs: S.poly({e: field.from_int(c) for e, c in zip(monos, cs) if c})
    )


@st.composite
def complexes(draw, field):
    """A complex over k[x,y,z]/J, J spanned by up to two random quadrics,
    from one of three sources: a Koszul complex; a Koszul complex with
    cokernel terms (over a trivial extension, or tensored with Q/(l) for a
    linear form l); the dual of a Koszul complex, whose twists are
    negative."""
    S = PolyRing(VARIABLES, field)
    # mostly sparse coefficients, so that J has room for standard monomials
    coeffs = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(0, 100))
    quadrics = draw(st.lists(_forms(S, 2, coeffs), max_size=2))
    Q = QuotientRing(S, quadrics)
    elements = draw(
        st.lists(st.one_of(_forms(S, 1, coeffs), _forms(S, 2, coeffs)), min_size=1, max_size=3)
    )
    K = koszul_complex(Q, elements)
    source = draw(st.sampled_from(["koszul", "tensor_line", "trivial_extension", "dual"]))
    if source == "tensor_line":
        line = draw(_forms(S, 1, coeffs))
        M = FPModule(Q, (0,), [line.vec])
        return tensor_complexes(K, Complex(Q, {0: M}, {}))
    if source == "trivial_extension":
        line = draw(_forms(S, 1, coeffs))
        M = FPModule.quotient_by_ideal(Q, [line])
        shift = draw(st.integers(1, 2))
        return koszul(trivial_extension(Q, M, shift), elements[:2]).underlying
    if source == "dual":
        return K.hom_dual()
    return K


@pytest.mark.parametrize("name", FIELDS)
def test_oracle_matches_the_full_ambient_reference(name):
    field = FIELDS[name]

    @settings(max_examples=40, deadline=None)
    @given(complexes(field), st.integers(0, 4))
    def check(C, d_max):
        assert truncation_oracle(C, d_max) == reference_oracle(C, d_max)

    check()


def test_oracle_matches_the_reference_on_a_dual_and_a_cokernel_complex():
    # Fixed instances of the two cases the quotient coordinates change:
    # relations beyond J, and a degree floor below 0.
    Q = ring("x", "y", "z", ideal=["x*y - z^2"])
    K = koszul_complex(Q, [poly("x", Q), poly("y^2", Q)])
    line = FPModule(Q, (0,), [poly("x + z", Q).vec])
    cases = [K.hom_dual(), tensor_complexes(K, Complex(Q, {0: line}, {}))]
    assert min(w for t in cases[0].terms.values() for w in t.twists) < 0
    assert not cases[1].is_termwise_free()
    for C in cases:
        assert truncation_oracle(C, 5) == reference_oracle(C, 5)


def test_oracle_matches_the_reference_over_q_with_non_unit_coefficients():
    # J's echelon over Q has the pivot 2, so the normal form of x*y, (3/2)zw,
    # is a remainder that divides by the scale it applied.  On J's own
    # generator, zero in Q, the differential vanishes only if it does.
    Q = ring("x", "y", "z", "w", ideal=["2*x*y - 3*z*w"], field=RationalField())
    for elements in (["2*x*y - 3*z*w"], ["x", "2*y - z", "3*w"]):
        K = koszul_complex(Q, [poly(e, Q) for e in elements])
        for C in (K, K.hom_dual()):
            assert truncation_oracle(C, 5) == reference_oracle(C, 5)


def test_the_oracle_uses_no_groebner_basis(monkeypatch):
    # K(x, y, z, w) over k[x,y,z,w]/(xy - zw) computes Tor^S(S/(xy - zw), k):
    # k in degree 0 and k(-2) in homological degree 1, nothing else.
    Q = ring("x", "y", "z", "w", ideal=["x*y - z*w"])
    K = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")])

    def refuse(*args, **kwargs):
        raise AssertionError("the truncation oracle reached the Groebner path")

    monkeypatch.setattr(gb, "buchberger", refuse)
    monkeypatch.setattr(gb, "normal_form", refuse)
    nonzero = {(0, 0), (-1, 2)}
    expected = {-i: {t: int((-i, t) in nonzero) for t in range(9)} for i in range(5)}
    assert truncation_oracle(K, 8) == expected

