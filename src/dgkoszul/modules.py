"""Finitely presented graded modules as cokernels, and maps between them.

An FPModule is its ring Q = S/J, its twists and its relations: the
cokernel F/N, where F is the free module with one basis vector, a
generator, per twist, and N is the span of the relations together with J
times that basis.  A free module is the cokernel with no relations.  One
reduced Groebner basis of N serves both membership tests and the Hilbert
series.  Relations and every other module element are ModVecs (see
poly.py), sparse maps (component of F, exponent) -> scalar, and a map is
the tuple of its columns: column j is the ModVec image of source generator
j over the target generators.

Kernels and subquotient presentations are one syzygy step, modulo(): the
syzygies of [gens | rels] projected to the gens coordinates.  So is the
annihilator of a module with two or more generators; a cyclic module Q/I
is annihilated by I, read off its relations.  A free module's basis is
J's basis times each generator, with no Groebner basis of its own.  The
one test of whether x, of degree d, is M-regular is regular_quotient: it
compares HS(M/xM) with (1 - t^d) HS(M), and M/xM keeps the basis that
extends M's.  A subquotient (span(gens) + N)/N, such as a homology
module, is presented by subquotient() as a minimal cokernel: buchberger
keeps a minimal generating set of the gens modulo N's Groebner basis, and
only those get relations, so none has a unit entry.  minimize() is the
subquotient that the basis vectors span.
"""

from __future__ import annotations

from typing import Sequence

from . import groebner as gb
from .hilbert import HilbertSeries, lead_module_series
from .poly import ModVec, Polynomial, PolyRing, vec_degree, vec_offset
from .rings import QuotientRing


class FPModule:
    """Graded cokernel F/N over a QuotientRing, N = span(rels) + J * F.

    F is the free module with one basis vector, a generator, per twist; a
    free module is the cokernel with no relations.
    """

    def __init__(self, ring: QuotientRing, twists: Sequence[int], rels: Sequence[ModVec] = ()):
        self.ring = ring
        self.twists = tuple(twists)
        self.rank = len(self.twists)
        self.rels = tuple(v for v in rels if v)
        for v in self.rels:
            if any(comp >= self.rank for comp, _ in v):
                raise ValueError("vector component outside the module's rank")
            if vec_degree(v, self.twists) is None:
                raise gb.InhomogeneousError("inhomogeneous column")
        self._basis = None
        self._hilbert = None
        self._annihilator = None

    @classmethod
    def quotient_by_ideal(cls, ring: QuotientRing, ideal: Sequence[Polynomial]) -> FPModule:
        return cls(ring, (0,), [p.vec for p in ideal])

    # -- structure --

    def basis_vector(self, i: int) -> ModVec:
        return {(i, (0,) * self.ring.nvars): self.ring.field.one}

    def j_columns(self) -> list[ModVec]:
        """The J-multiples of the basis vectors (J acts as zero over Q)."""
        return [vec_offset(g.vec, i) for g in self.ring.j_gens for i in range(self.rank)]

    def relation_columns(self) -> list[ModVec]:
        """Generators of N: the relations, then the J-multiples of the basis."""
        return list(self.rels) + self.j_columns()

    def _reduced_basis(self) -> list[ModVec]:
        """The reduced Groebner basis of N, built once and shared by
        membership tests and the Hilbert series."""
        if self._basis is None:
            self._basis = _span(self.rels, self)[0] if self.rels else _j_basis(self)
        return self._basis

    def element_is_zero(self, v: ModVec) -> bool:
        """True if the vector v of F lies in N."""
        return not gb.normal_form(v, self._reduced_basis(), self.ring.field)

    # -- invariants --

    def hilbert_series(self) -> HilbertSeries:
        """HS(F/N), read from the leads of N's basis (each basis vector's
        first key)."""
        if self._hilbert is None:
            leads = [next(iter(g)) for g in self._reduced_basis()]
            self._hilbert = lead_module_series(leads, self.rank, self.twists, self.ring.poly_ring)
        return self._hilbert

    def dim(self):
        """Krull dimension: pole order of the Hilbert series (-inf if zero)."""
        return self.hilbert_series().pole_order

    def annihilator(self) -> list[Polynomial]:
        """Generators (in S) of ann_Q(M), as their nonzero normal forms
        modulo J; callers that want the ideal of S add J's generators.

        A cyclic module F/N is Q/I for the ideal I of its relation entries,
        and I is its annihilator.  With k >= 2 generators, the annihilator
        is the syzygy coefficient on the stacked column (e_1, ..., e_k) of
        the basis vectors inside the direct sum of k twisted copies of F,
        against all relations in each copy.
        """
        if self._annihilator is not None:
            return self._annihilator
        ring = self.ring.poly_ring
        k = self.rank
        if k == 0:
            self._annihilator = [ring.one]
            return self._annihilator
        if k == 1:
            entries = self.rels
        else:
            twists = self.twists
            big_twists = [t - twists[j] for j in range(k) for t in twists]
            one = self.ring.field.one
            stacked = {(j * k + j, (0,) * self.ring.nvars): one for j in range(k)}
            rels = [vec_offset(rel, j * k) for j in range(k) for rel in self.relation_columns()]
            entries = modulo([stacked], rels, big_twists, ring)
        polys = [Polynomial(ring, v) for v in entries]
        anns = {p for p in self.ring.normal_forms(polys) if not p.is_zero()}
        self._annihilator = sorted(anns, key=lambda p: p.sort_key())
        return self._annihilator

    # -- minimization --

    def minimize(self) -> FPModule:
        """Minimal cokernel presentation: the subquotient that the basis
        vectors span, on a minimal subset of them."""
        return subquotient(self, [self.basis_vector(i) for i in range(self.rank)])

    def __repr__(self):
        return f"FPModule(rank={self.rank}, rels={len(self.rels)})"


def modulo(
    gens: Sequence[ModVec], rels: Sequence[ModVec], twists: Sequence[int], ring: PolyRing
) -> list[ModVec]:
    """Generators of {c : sum_j c_j gens[j] lies in span(rels)} over S.

    They are the syzygies of [gens | rels] in the free module with the
    given twists, projected to the first len(gens) coordinates
    (Singular's modulo), in the syzygy engine's order with zero vectors
    dropped.
    """
    k = len(gens)
    if not k:
        return []
    syz = gb.syzygies(list(gens) + list(rels), twists, ring)
    projected = ({t: c for t, c in s.items() if t[0] < k} for s in syz)
    return [v for v in projected if v]


def kernel(columns: Sequence[ModVec], target: FPModule) -> list[ModVec]:
    """Generators of the kernel of the map with the given columns into
    target, as coefficient vectors over the source generators: modulo's
    output as it comes, not minimized (subquotient keeps a minimal subset
    of them)."""
    return modulo(columns, target.relation_columns(), target.twists, target.ring.poly_ring)


def subquotient(M: FPModule, gens: Sequence[ModVec], rels: Sequence[ModVec] = ()) -> FPModule:
    """The minimal cokernel form of (span(gens) + N)/N inside M's free
    module, with N spanned by M's relations, then rels, then J times M's
    generators.

    One buchberger call over N's Groebner basis keeps a minimal generating
    set of the gens modulo N (graded Nakayama, the greedy choice of
    min_gens), so no relation on the kept generators has a unit entry: one
    would make a kept generator redundant.  When they are M's basis
    vectors, the result is M's free module modulo N's minimal relations;
    otherwise its relations are the minimal generators of modulo(kept, N).
    Either way the result keeps the Groebner basis of its relations.
    """
    ring = M.ring
    rels = [*M.rels, *rels]
    basis, minimal = _span(rels, M)
    kept = gb.buchberger(gens, M.twists, ring.field, ring.poly_ring.degree_cap, known=basis)[1]
    if kept == [M.basis_vector(i) for i in range(M.rank)]:
        result = FPModule(ring, M.twists, minimal)
    else:
        degs = [vec_degree(g, M.twists) for g in kept]
        cols = modulo(kept, rels + M.j_columns(), M.twists, ring.poly_ring)
        basis, minimal = _span(cols, FPModule(ring, degs))
        result = FPModule(ring, degs, minimal)
    result._basis = basis
    return result


def regular_quotient(M: FPModule, x: Polynomial, d: int) -> FPModule | None:
    """M/xM, with its Groebner basis, when x, of degree d, is M-regular, else None.

    As 0 -> (0 :_M x)(-d) -> M(-d) -> M -> M/xM -> 0 is exact, x is
    M-regular iff HS(M/xM) = (1 - t^d) HS(M).  One buchberger call extends
    N's basis by x times each generator.
    """
    ring = M.ring
    times = [vec_offset(x.vec, j) for j in range(M.rank)]
    quotient = FPModule(ring, M.twists, M.rels + tuple(times))
    quotient._basis = gb.buchberger(
        times, M.twists, ring.field, ring.poly_ring.degree_cap, known=M._reduced_basis()
    )[0]
    hs = M.hilbert_series()
    return quotient if quotient.hilbert_series() == hs - hs.shift(d) else None


def _j_basis(M: FPModule) -> list[ModVec]:
    """J's reduced Groebner basis times each basis vector: a Groebner basis
    of J times M's free module."""
    return [vec_offset(g.vec, i) for g in M.ring.groebner() for i in range(M.rank)]


def min_gens(columns: Sequence[ModVec], M: FPModule) -> list[ModVec]:
    """A minimal generating subset of the given homogeneous columns of M's
    free module, modulo J: the columns that _span's buchberger call keeps.

    Relations are only defined modulo J, so J times the basis always spans
    but is never kept.  A column is kept when it does not lie in the span
    of J's multiples, the columns of lower degree and the columns before it
    of its own degree, in the order given: the greedy choice, which drops
    zero and duplicate columns and realizes the Nakayama minimal count for
    graded modules.
    """
    return _span(columns, M)[1]


def _span(columns: Sequence[ModVec], M: FPModule) -> tuple[list[ModVec], list[ModVec]]:
    """buchberger's (basis, kept) for the columns over J's basis times M's
    generators: the reduced Groebner basis of span(columns) + J * F, and
    min_gens.  buchberger admits the columns by degree, and within a degree
    in the order given."""
    cap = M.ring.poly_ring.degree_cap
    return gb.buchberger(columns, M.twists, M.ring.field, cap, known=_j_basis(M))
