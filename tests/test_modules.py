from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import poly, ring
from dgkoszul import FPModule, PrimeField, kernel, min_gens, subquotient
from dgkoszul import groebner as gb
from dgkoszul.hilbert import NEG_INF, lead_module_series
from dgkoszul.modules import modulo
from dgkoszul.poly import (
    Polynomial,
    grevlex_key,
    vec_add_multiple,
    vec_combination,
    vec_degree,
)
from dgkoszul.rings import QuotientRing


def _col(text, Q):
    return poly(text, Q).vec


def _kernel_of_multiplication(M, c):
    """ker(c : M -> M) as a module in M's own grading."""
    times_c = [{(j, e): v for (_, e), v in c.vec.items()} for j in range(M.rank)]
    return subquotient(M, kernel(times_c, M))


def test_kernel_of_multiplication_on_hypersurface():
    # ker(x : Q -> Q) for Q = k[x,y]/(xy) is the ideal (y): dims 0,1,1,1,...
    Q = ring("x", "y", ideal=["x*y"])
    M = FPModule(Q, (0,))
    ker = _kernel_of_multiplication(M, poly("x", Q))
    assert ker.hilbert_series().coefficients(5) == [0, 1, 1, 1, 1, 1]
    assert ker.dim() == 1


def test_kernel_of_zero_map_is_everything():
    Q = ring("x", "y", ideal=["x*y"])
    M = FPModule(Q, (0,))
    zero_map = [{} for _ in range(M.rank)]
    everything = subquotient(M, kernel(zero_map, M))
    assert everything.hilbert_series() == M.hilbert_series()


def test_kernel_on_domain_is_zero():
    Q = ring("x")
    M = FPModule(Q, (0,))
    assert _kernel_of_multiplication(M, poly("x", Q)).hilbert_series().is_zero()


def test_module_dims():
    Q = ring("x", "y", ideal=["x*y"])
    N = FPModule.quotient_by_ideal(Q, [poly("x", Q)])  # (y)-complement: Q/(x) = k[y]
    assert N.dim() == 1
    k_mod = FPModule.quotient_by_ideal(Q, [poly("x", Q), poly("y", Q)])
    assert k_mod.dim() == 0
    assert FPModule(Q, (0,)).dim() == Q.dim()
    zero = FPModule.quotient_by_ideal(Q, [Q.poly_ring.one])
    assert zero.dim() == NEG_INF


def test_annihilators():
    Q = ring("x", "y", ideal=["x*y"])
    N = FPModule.quotient_by_ideal(Q, [poly("x", Q)])
    assert [str(p) for p in N.annihilator()] == ["x"]
    M = FPModule(Q, (0,))
    assert M.annihilator() == []  # J reduces to zero in Q


def test_minimize_redundant_presentation_of_residue_field():
    # k = Q/(x, y, x+y) over k[x,y]: three generators, minimal Betti 1,2
    Q = ring("x", "y")
    pres = FPModule(Q, (0,), [_col("x", Q), _col("y", Q), _col("x + y", Q)])
    m = pres.minimize()
    assert m.rank == 1
    assert len(m.rels) == 2


def test_minimize_kills_unit_cokernel():
    Q = ring("x", "y")
    unit = FPModule(Q, (0,), [_col("1", Q)])
    assert unit.minimize().hilbert_series().is_zero()


def test_a_relation_outside_the_rank_is_rejected():
    Q = ring("x", "y")
    beyond = {(1, (1, 0)): Q.field.one}
    with pytest.raises(ValueError, match="^vector component outside the module's rank$"):
        FPModule(Q, (0,), [beyond])


def test_an_inhomogeneous_relation_is_rejected():
    Q = ring("x", "y")
    one = Q.field.one
    # x in both components has degree 1 + 0 and 1 + 1 under twists (0, 1).
    cases = [((0,), _col("x + y^2", Q)), ((0, 1), {(0, (1, 0)): one, (1, (1, 0)): one})]
    for twists, rel in cases:
        with pytest.raises(gb.InhomogeneousError, match="^inhomogeneous column$"):
            FPModule(Q, twists, [rel])


def test_min_gens_drops_redundant_columns():
    Q = ring("x", "y")
    F2 = FPModule(Q, (0,))
    cols = [_col(t, Q) for t in ("x", "y", "x + y", "x^2")]
    kept = min_gens(cols, F2)
    assert len(kept) == 2


def test_min_gens_keeps_the_columns_of_one_degree_in_the_order_given():
    # All three columns have degree 1; the greedy choice keeps the first
    # two, which span, and drops x.
    Q = ring("x", "y")
    cols = [_col(t, Q) for t in ("x + y", "y", "x")]
    assert min_gens(cols, FPModule(Q, (0,))) == cols[:2]


Q101 = ring("x", "y", "z", ideal=["x*y - z^2"], field=PrimeField(101))
TWISTS = (0, 1)
F_RANK2 = FPModule(Q101, TWISTS)


def _monomials(degree):
    return [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) == degree]


@st.composite
def _subquotients(draw):
    """Homogeneous gens and rels, and a probe vector, in the rank-2 free
    module with twists (0, 1) over F_101[x, y, z]/(xy - z^2)."""

    def vector(degree):
        v = {}
        for comp, twist in enumerate(F_RANK2.twists):
            if degree >= twist:
                monos = st.sampled_from(_monomials(degree - twist))
                for e in draw(st.lists(monos, max_size=3, unique=True)):
                    v[(comp, e)] = draw(st.integers(1, 100))
        return v

    gens = [vector(draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    rels = [vector(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 3)))]
    return gens, rels, vector(draw(st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(_subquotients())
def test_subquotient_matches_the_two_series_formula_and_membership_matches_the_colon_ideal(case):
    gens, rels, probe = case
    N = FPModule(Q101, TWISTS, rels)
    # HS((span(gens) + N)/N) = HS(F/N) - HS(F/(N + span(gens)))
    expected = N.hilbert_series() - FPModule(Q101, TWISTS, rels + gens).hilbert_series()
    result = subquotient(F_RANK2, gens, rels)
    assert result.hilbert_series() == expected
    # Only a minimal generating set of the gens modulo N gets relations, so
    # no relation has a constant entry.  min_gens admits the columns by
    # degree, the rels before the gens within a degree, so the gens it
    # keeps are the greedy minimal set modulo N.
    assert all(e != (0, 0, 0) for rel in result.rels for _, e in rel)
    kept = min_gens(rels + gens, F_RANK2)
    assert result.rank == sum(any(k is g for g in gens) for k in kept)
    cols = N.relation_columns()
    field = Q101.field
    constant = (0, 0, 0)

    def colon_has_a_unit(u):
        colon = modulo([u], cols, F_RANK2.twists, Q101.poly_ring)
        return any(set(c) == {(0, constant)} for c in colon)

    def in_n_by_colon(v):
        # N is graded, so v lies in N exactly when each homogeneous part u
        # does, that is when (N : u) contains a nonzero constant.
        parts = {}
        for (comp, e), c in v.items():
            parts.setdefault(sum(e) + F_RANK2.twists[comp], {})[(comp, e)] = c
        return all(colon_has_a_unit(u) for u in parts.values())

    # x times the sum of the relation columns lies in N; adding it keeps
    # a probe in N exactly when the probe is.
    in_n = vec_combination(cols, {(j, (1, 0, 0)): field.one for j in range(len(cols))}, field)
    shifted = dict(probe)
    vec_add_multiple(shifted, in_n, (0, 0, 0), field.one, field)
    assert N.element_is_zero(in_n)
    for v in gens + [probe, shifted]:
        assert N.element_is_zero(v) == in_n_by_colon(v)
    assert N.element_is_zero(probe) == N.element_is_zero(shifted)


@st.composite
def _maps_into_rank2(draw):
    """A random map F_src -> F_RANK2/N: the source twists, the columns (one
    homogeneous vector of each source twist, possibly zero) and the
    relations of N."""

    def vector(degree):
        v = {}
        for comp, twist in enumerate(F_RANK2.twists):
            if degree >= twist:
                monos = st.sampled_from(_monomials(degree - twist))
                for e in draw(st.lists(monos, max_size=3, unique=True)):
                    v[(comp, e)] = draw(st.integers(1, 100))
        return v

    degs = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 3)))]
    rels = [vector(draw(st.integers(1, 3))) for _ in range(draw(st.integers(0, 2)))]
    return tuple(degs), [vector(d) for d in degs], rels


@settings(max_examples=40, deadline=None)
@given(_maps_into_rank2())
def test_kernel_maps_into_the_relations_and_has_the_image_series(case):
    degs, cols, rels = case
    M = FPModule(Q101, TWISTS, rels)
    ker = kernel(cols, M)
    field = Q101.field
    for v in ker:
        assert M.element_is_zero(vec_combination(cols, v, field))
    # F_src/ker is the image, so HS(F_src/ker) = HS(M) - HS(M/im)
    image = FPModule(Q101, degs, ker).hilbert_series()
    assert image == M.hilbert_series() - FPModule(Q101, TWISTS, rels + cols).hilbert_series()


def _rebuilt_min_gens(columns, F):
    """min_gens with a full Buchberger over the kept columns and J's
    multiples of F's basis after every kept column."""
    field = F.ring.field
    # By degree, and within a degree in the order given.
    candidates = sorted((c for c in columns if c), key=lambda v: vec_degree(v, F.twists))
    kept = []
    for cand in candidates:
        spanning = kept + F.j_columns()
        basis = gb.buchberger(spanning, F.twists, field)[0] if spanning else []
        if basis and not gb.normal_form(cand, basis, field):
            continue
        kept.append(cand)
    return kept


@pytest.mark.parametrize("modulo_j", [False, True], ids=["plain", "modulo-J"])
@settings(max_examples=40, deadline=None)
@given(case=_subquotients())
def test_min_gens_matches_a_rebuild_after_every_kept_column(modulo_j, case):
    gens, rels, probe = case
    columns = gens + rels + [probe]
    # min_gens spans modulo a Groebner basis of J times F's basis; the
    # reference starts from J's generators.  Over S, J = 0.
    F = F_RANK2 if modulo_j else FPModule(QuotientRing(Q101.poly_ring), TWISTS)
    assert min_gens(columns, F) == _rebuilt_min_gens(columns, F)


def _term_order_key(term):
    """Term over position by grevlex_key, the lower component winning ties."""
    comp, e = term
    return grevlex_key(e), -comp


@pytest.mark.parametrize(
    "variables,ideal",
    [(("x", "y"), ["x*y"]), (("x", "y", "z"), ["x^2 - y*z", "x*y*z"]), (("x", "y"), ["1"])],
    ids=["hypersurface", "two-generators", "zero-ring"],
)
@pytest.mark.parametrize("twists", [(), (0,), (-2, 0, 3)], ids=["rank-0", "rank-1", "negative"])
def test_a_free_modules_series_is_the_rings_series_twisted(variables, ideal, twists):
    Q = ring(*variables, ideal=ideal)
    basis, _ = gb.buchberger(FPModule(Q, twists).j_columns(), twists, Q.field)
    leads = [max(g, key=_term_order_key) for g in basis]
    expected = lead_module_series(leads, len(twists), twists, Q.poly_ring)
    assert FPModule(Q, twists).hilbert_series() == expected


@st.composite
def _cyclic_modules(draw):
    """Homogeneous relations of a cyclic module over F_101[x, y, z]/(xy - z^2)
    on one generator of twist 0 or 1."""
    twist = draw(st.integers(0, 1))

    def relation(degree):
        monos = st.sampled_from(_monomials(degree - twist))
        return {(0, e): draw(st.integers(1, 100)) for e in draw(st.lists(monos, max_size=3, unique=True))}

    rels = [relation(draw(st.integers(twist, 3))) for _ in range(draw(st.integers(0, 3)))]
    return (twist,), rels


@settings(max_examples=40, deadline=None)
@given(_cyclic_modules())
def test_a_cyclic_modules_annihilator_is_its_relation_ideal(case):
    twists, rels = case
    M = FPModule(Q101, twists, rels)
    R = Q101.poly_ring
    # The reference is the syzygy coefficient on the generator against
    # every relation, the stacked-modulo computation of any rank.
    generator = {(0, (0, 0, 0)): Q101.field.one}
    reference = [
        Polynomial(R, v) for v in modulo([generator], M.relation_columns(), (0,), R)
    ]
    ideal = QuotientRing(R, tuple(M.annihilator()) + Q101.j_gens)
    assert ideal == QuotientRing(R, tuple(reference) + Q101.j_gens)
