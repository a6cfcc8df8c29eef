from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly, ring
from dgkoszul import (
    Complex,
    FPModule,
    PolyRing,
    PrimeField,
    QuotientRing,
    euler_series,
    koszul_complex,
    run_job,
    tensor_complexes,
    trivial_extension,
    truncation_oracle,
)
from dgkoszul.complexes import (
    _monomials_of_degree,
    homology_hilbert_functions,
    oracle_basis_size,
)
from dgkoszul.hilbert import NEG_INF, POS_INF
from dgkoszul.poly import column_to_vec


def _koszul(Q, texts):
    return koszul_complex(Q, [poly(t, Q) for t in texts])


def _map(*columns):
    """A map given by its columns, each a tuple of Polynomial entries."""
    return tuple(column_to_vec(col) for col in columns)


def test_regular_sequence_collapses():
    Q = ring("x", "y")
    K = _koszul(Q, ["x", "y"])
    K.validate()
    assert K.amp() == 0
    assert K.homology(0).hilbert_series().reduced() == ({0: 1}, 0)
    assert K.homology(-1).hilbert_series().is_zero()
    assert K.homology(-2).hilbert_series().is_zero()


def test_koszul_over_hypersurface():
    Q = ring("x", "y", ideal=["x*y"])
    K = _koszul(Q, ["x"])
    # H^0 = k[y]; H^-1 = (y) sitting in internal degrees >= 2
    assert K.homology(0).hilbert_series().coefficients(4) == [1, 1, 1, 1, 1]
    assert K.homology(-1).hilbert_series().coefficients(4) == [0, 0, 1, 1, 1]


def test_zero_differential_complex_is_its_terms():
    Q = ring("x")
    M = FPModule(Q, (0,))
    C = Complex(Q, {0: M, -2: M}, {})
    assert C.homology(0).hilbert_series() == M.hilbert_series()
    assert C.homology(-2).hilbert_series() == M.hilbert_series()
    assert C.amp() == 2


def test_tensor_of_two_koszul_complexes_matches_flat_one():
    Q = ring("x", "y")
    T = tensor_complexes(_koszul(Q, ["x"]), _koszul(Q, ["y"]))
    K = _koszul(Q, ["x", "y"])
    T.validate()
    assert [T.term(i).rank for i in T.support] == [1, 2, 1]
    assert T.diffs == K.diffs


def test_total_complex_of_single_row_is_that_row():
    Q = ring("x", "y")
    C = _koszul(Q, ["x"])
    point = Complex(Q, {0: FPModule(Q, (0,))}, {})
    T = tensor_complexes(point, C)
    assert T.support == C.support
    assert T.diffs == C.diffs


def test_complex_with_a_nonzero_d_squared_is_rejected():
    # Over k[x]: Q(-1) --x--> Q --1--> Q, each map well defined, but d∘d = x.
    Q = ring("x")
    x, one = poly("x", Q), Q.poly_ring.one
    terms = {0: FPModule(Q, (1,)), 1: FPModule(Q, (0,)), 2: FPModule(Q, (0,))}
    C = Complex(Q, terms, {0: _map((x,)), 1: _map((one,))})
    with pytest.raises(AssertionError, match="d∘d"):
        C.validate()


def _relation_cases():
    """(free Koszul complex, complex with relations) pairs over one ring."""
    Q = ring("x", "y", "z", ideal=["x*y - z^2"])
    line = FPModule.quotient_by_ideal(Q, [poly("x + y", Q)])
    # generators of degrees 0 and 1 with relations x*e0 and z^2*e0 + y*e1
    M = FPModule(
        Q, (0, 1), _map((poly("x", Q), poly("0", Q)), (poly("z^2", Q), poly("y", Q)))
    )
    extension = trivial_extension(Q, M, 1).underlying
    return [
        (_koszul(Q, ["x", "z"]), Complex(Q, {0: line}, {})),
        (_koszul(Q, ["x", "y^2"]), tensor_complexes(extension, _koszul(Q, ["y"]))),
    ]


@pytest.mark.parametrize("case", range(2), ids=["Q/(l)", "K(y) over a trivial extension"])
def test_relations_on_either_side_of_a_tensor_give_the_same_homology(case):
    # The two orders put the relations on opposite sides of the tensor
    # product, so each relation branch of tensor_complexes checks the other.
    K, D = _relation_cases()[case]
    assert not D.is_termwise_free()
    left, right = tensor_complexes(K, D), tensor_complexes(D, K)
    left.validate()
    right.validate()
    assert left.homology_table() == right.homology_table()
    assert left.homology_table()


def test_hom_dual_of_rank_one_koszul():
    Q = ring("x", ideal=[])
    K = _koszul(Q, ["x"])
    D = K.hom_dual()
    assert sorted(D.terms) == [0, 1]
    # the dual complex is the Koszul complex shifted by -1 up to sign
    assert D.diffs[0] in (_map((poly("x", Q),)), _map((-poly("x", Q),)))


def test_hom_dual_involutive_on_koszul_fixtures():
    Q = ring("x", "y", ideal=["x*y"])
    K = _koszul(Q, ["x", "y"])
    DD = K.hom_dual().hom_dual()
    assert {i: t.twists for i, t in DD.terms.items()} == {
        i: t.twists for i, t in K.terms.items()
    }
    assert DD.homology_table() == K.homology_table()


def test_hom_dual_point_is_point():
    Q = ring("x")
    point = Complex(Q, {0: FPModule(Q, (0,))}, {})
    D = point.hom_dual()
    assert D.support == [0]


def test_shift_moves_homology():
    Q = ring("x", "y", ideal=["x*y"])
    K = _koszul(Q, ["x"])
    for j in (-2, 0, 3):
        S = K.shift(j)
        S.validate()
        for i in K.support:
            assert (
                S.homology(i - j).hilbert_series()
                == K.homology(i).hilbert_series()
            )


def test_ill_defined_differential_is_rejected():
    # Q/(x) -> Q and k -> Q sending the generator to 1 ignore the relation x = 0.
    Q = ring("x", "y")
    free = FPModule(Q, (0,))
    k_mod = FPModule(Q, (0,), _map((poly("x", Q),), (poly("y", Q),)))
    one = _map((Q.poly_ring.one,))
    for source in (FPModule(Q, (0,), _map((poly("x", Q),))), k_mod):
        C = Complex(Q, {0: source, 1: free}, {0: one})
        with pytest.raises(AssertionError, match="not well defined"):
            C.validate()
    # the quotient projection Q -> k is well defined
    Complex(Q, {0: free, 1: k_mod}, {0: one}).validate()


def test_oracle_basis_size_counts_the_oracle_basis():
    fixtures = [
        _koszul(ring("x", "y", ideal=["x*y"]), ["x", "y^2"]),
        _koszul(ring("x", "y", "z", "w", ideal=["x*y - z*w"]), ["x", "y", "z", "w"]),
        _koszul(ring("x", "y", "z"), ["x^2", "y"]).hom_dual(),
        Complex(ring("x"), {}, {}),
    ]
    for C in fixtures:
        n = C.ring.nvars
        floor = min([0] + [w for t in C.terms.values() for w in t.twists])
        for d in (0, 3, 7):
            brute = sum(
                len(_monomials_of_degree(n, t - w))
                for term in C.terms.values()
                for w in term.twists
                for t in range(floor, d + 1)
            )
            assert oracle_basis_size(C, d) == brute


def test_truncation_oracle_matches_hand_linear_algebra():
    # K(k[x,y]/(xy); x): by hand, H^-1 in internal degrees 0,1,2 has
    # dimensions 0,0,1 (the kernel of x on degree-1 ambient is y*e).
    Q = ring("x", "y", ideal=["x*y"])
    K = _koszul(Q, ["x"])
    table = truncation_oracle(K, 6)
    assert [table[-1][t] for t in range(0, 7)] == [0, 0, 1, 1, 1, 1, 1]
    assert [table[0][t] for t in range(0, 7)] == [1, 1, 1, 1, 1, 1, 1]


def test_truncation_oracle_zero_complex():
    Q = ring("x")
    C = Complex(Q, {}, {})
    assert truncation_oracle(C, 3) == {}


def test_oracle_agrees_with_symbolic_path():
    fixtures = [
        (ring("x", "y"), ["x", "y"]),
        (ring("x", "y", ideal=["x*y"]), ["x"]),
        (ring("x", "y", ideal=["x*y"]), ["x", "y"]),
        (ring("x", "y", ideal=["x^2", "x*y"]), ["y"]),
        (ring("x", "y", "z", "w", ideal=["x*y - z*w"]), ["x", "z"]),
    ]
    for Q, texts in fixtures:
        K = _koszul(Q, texts)
        assert truncation_oracle(K, 8) == homology_hilbert_functions(K, 8)


def test_euler_characteristic_identity():
    fixtures = [
        (ring("x", "y"), ["x", "y"]),
        (ring("x", "y", ideal=["x*y"]), ["x", "y"]),
        (ring("x", "y", "z", "w", ideal=["x*y - z*w"]), ["x", "z"]),
    ]
    for Q, texts in fixtures:
        K = _koszul(Q, texts)
        lhs = euler_series(K)
        rhs = Q.hilbert_series()
        for t in texts:
            d = poly(t, Q).homogeneous_degree()
            rhs = rhs - rhs.shift(d)
        assert lhs == rhs
        assert lhs.coefficients(10) == rhs.coefficients(10)


def test_euler_check_reads_the_homology_modules(monkeypatch):
    # On the Hilbert-series path the alternating sum telescopes to the
    # terms' series, so a wrong homology module must make the check fail.
    job = {
        "field": {"kind": "prime", "p": 32003},
        "vars": ["x", "y"],
        "ideal": ["x*y"],
        "tasks": [{"task": "check", "name": "euler_characteristic", "elements": ["x", "y"]}],
    }
    assert run_job(job)["results"][0]["result"]["verdict"] == "PASS"
    honest = Complex.homology

    def wrong_in_degree_minus_one(self, i):
        return FPModule(self.ring, (0,)) if i == -1 else honest(self, i)

    monkeypatch.setattr(Complex, "homology", wrong_in_degree_minus_one)
    result = run_job(job)["results"][0]["result"]
    assert result["exact_equality"] is False
    assert result["verdict"] == "FAIL"


S101 = PolyRing(("x", "y", "z"), PrimeField(101))


def _forms(degree):
    """Homogeneous forms of the given degree in F_101[x, y, z], zero included."""
    monos = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]
    coeffs = st.lists(st.integers(0, 100), min_size=len(monos), max_size=len(monos))
    field = S101.field
    return coeffs.map(
        lambda cs: S101.poly({e: field.from_int(c) for e, c in zip(monos, cs) if c})
    )


@st.composite
def _koszul_over_a_quadric(draw):
    """K(Q; a_1..a_n) for 1 <= n <= 3 forms of degree 1 or 2 over
    Q = F_101[x, y, z]/(q), q a nonzero quadric: every term is F/JF."""
    Q = QuotientRing(S101, [draw(_forms(2).filter(lambda q: not q.is_zero()))])
    elements = [draw(_forms(draw(st.integers(1, 2)))) for _ in range(draw(st.integers(1, 3)))]
    return koszul_complex(Q, elements)


def _reference_koszul(ring, elements, degrees):
    """The Koszul complex built subset by subset: the term in degree -k has
    one generator per k-subset T of the elements, in lexicographic order,
    twisted by the sum of their degrees, and d(e_T) is the sum over
    positions l of (-1)^(l-1) a_{t_l} e_{T minus t_l}."""
    n = len(elements)
    degs = [
        degrees[i] if a.is_zero() else a.homogeneous_degree() for i, a in enumerate(elements)
    ]
    field = ring.field
    subsets = {k: list(itertools.combinations(range(n), k)) for k in range(n + 1)}
    terms = {
        -k: FPModule(ring, tuple(sum(degs[i] for i in T) for T in subsets[k]))
        for k in range(n + 1)
    }
    diffs = {}
    for k in range(1, n + 1):
        tgt_index = {T: r for r, T in enumerate(subsets[k - 1])}
        diffs[-k] = tuple(
            {
                (tgt_index[T[:l] + T[l + 1:]], e): c if l % 2 == 0 else field.neg(c)
                for l, t in enumerate(T)
                for (_, e), c in elements[t].vec.items()
            }
            for T in subsets[k]
        )
    return Complex(ring, terms, diffs)


@st.composite
def _elements_over_a_quadric(draw):
    """Q = F_101[x, y, z]/(q), 0 to 4 forms of degree 1 or 2 (some of them
    zero), and a declared degree for each."""
    Q = QuotientRing(S101, [draw(_forms(2).filter(lambda q: not q.is_zero()))])
    form = st.integers(1, 2).flatmap(_forms)
    elements = draw(st.lists(st.one_of(form, st.just(S101.zero)), max_size=4))
    degrees = draw(st.lists(st.integers(-3, 3), min_size=len(elements), max_size=len(elements)))
    return Q, elements, degrees


@settings(max_examples=100, deadline=None)
@given(_elements_over_a_quadric())
def test_koszul_complex_matches_the_subset_indexed_reference(case):
    Q, elements, degrees = case
    K = koszul_complex(Q, elements, degrees=degrees)
    R = _reference_koszul(Q, elements, degrees)
    assert {i: t.twists for i, t in K.terms.items()} == {
        i: t.twists for i, t in R.terms.items()
    }
    assert K.diffs == R.diffs


@settings(max_examples=40, deadline=None)
@given(_koszul_over_a_quadric())
def test_homology_series_is_the_series_of_the_homology_module(K):
    for i in K.support:
        assert K.homology_series(i) == K.homology(i).hilbert_series()
    nonzero = [i for i in K.support if K.homology(i).rank > 0]
    assert sorted(K.homology_table()) == nonzero
    assert K.inf() == (nonzero[0] if nonzero else POS_INF)
    assert K.sup() == (nonzero[-1] if nonzero else NEG_INF)


def test_acyclic_sentinels():
    Q = ring("x")
    K = _koszul(Q, ["x"])
    # quotient by a regular element concentrated in degree 0: H^-1 = 0
    assert K.inf() == 0
    unit = Complex(
        Q,
        {0: FPModule(Q, (0,)), 1: FPModule(Q, (0,))},
        {0: _map((Q.poly_ring.one,))},
    )
    assert unit.inf() == POS_INF
    assert unit.sup() == NEG_INF
    assert unit.amp() == NEG_INF
