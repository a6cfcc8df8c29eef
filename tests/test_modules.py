from __future__ import annotations

import pytest

from conftest import poly, ring
from dgkoszul import FPModule, ModuleMap, min_gens
from dgkoszul.hilbert import NEG_INF
from dgkoszul.invariants import kernel_of_multiplication
from dgkoszul.groebner import column_to_vec
from dgkoszul.rings import FreeModule


def _col(text, Q):
    return column_to_vec((poly(text, Q),))


def test_kernel_of_multiplication_on_hypersurface():
    # ker(x : Q -> Q) for Q = k[x,y]/(xy) is the ideal (y): dims 0,1,1,1,...
    Q = ring("x", "y", ideal=["x*y"])
    M = FPModule.free(Q, (0,))
    ker = kernel_of_multiplication(M, poly("x", Q))
    assert ker.hilbert_series().coefficients(5, start=0) == [0, 1, 1, 1, 1, 1]
    assert ker.dim() == 1


def test_kernel_of_zero_map_is_everything():
    Q = ring("x", "y", ideal=["x*y"])
    M = FPModule.free(Q, (0,))
    z = ModuleMap.zero(M, M)
    assert z.kernel().hilbert_series() == M.hilbert_series()


def test_kernel_on_domain_is_zero():
    Q = ring("x")
    M = FPModule.free(Q, (0,))
    assert kernel_of_multiplication(M, poly("x", Q)).is_zero_module()


def test_module_dims():
    Q = ring("x", "y", ideal=["x*y"])
    N = FPModule.quotient_by_ideal(Q, [poly("x", Q)])  # (y)-complement: Q/(x) = k[y]
    assert N.dim() == 1
    k_mod = FPModule.quotient_by_ideal(Q, [poly("x", Q), poly("y", Q)])
    assert k_mod.dim() == 0
    assert FPModule.free(Q, (0,)).dim() == Q.dim()
    zero = FPModule.quotient_by_ideal(Q, [Q.poly_ring.one])
    assert zero.dim() == NEG_INF


def test_annihilators():
    Q = ring("x", "y", ideal=["x*y"])
    N = FPModule.quotient_by_ideal(Q, [poly("x", Q)])
    assert [str(p) for p in N.annihilator()] == ["x"]
    M = FPModule.free(Q, (0,))
    assert M.annihilator() == []  # J reduces to zero in Q


def test_well_definedness_check():
    Q = ring("x", "y")
    k_mod = FPModule.quotient_by_ideal(Q, [poly("x", Q), poly("y", Q)]).minimize()
    M = FPModule.free(Q, (0,))
    # sending the generator of k to 1 in Q ignores the relation x*gen = 0
    bad = ModuleMap(k_mod, M, [_col("1", Q)])
    assert not bad.is_well_defined()
    # the quotient projection Q -> k is well defined
    good = ModuleMap(M, k_mod, [_col("1", Q)])
    assert good.is_well_defined()


def test_minimize_redundant_presentation_of_residue_field():
    # k = Q/(x, y, x+y) over k[x,y]: three generators, minimal Betti 1,2
    Q = ring("x", "y")
    pres = FPModule.cokernel(Q, (0,), [_col("x", Q), _col("y", Q), _col("x + y", Q)])
    m = pres.minimize()
    assert len(m.gens) == 1
    assert len(m.rels) == 2


def test_minimize_kills_unit_cokernel():
    Q = ring("x", "y")
    unit = FPModule.cokernel(Q, (0,), [_col("1", Q)])
    assert unit.minimize().is_zero_module()


def test_min_gens_drops_redundant_columns():
    Q = ring("x", "y")
    F2 = FreeModule(Q, 1, (0,))
    cols = [_col(t, Q) for t in ("x", "y", "x + y", "x^2")]
    kept = min_gens(cols, F2)
    assert len(kept) == 2


def test_twist_shifts_series():
    Q = ring("x")
    M = FPModule.free(Q, (0,))
    assert M.twist(3).hilbert_series() == M.hilbert_series().shift(3)
