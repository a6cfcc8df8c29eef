"""Finitely presented graded modules as cokernels, and maps between them.

An FPModule is a cokernel F/N over Q = S/J: F is a free ambient module
whose basis vectors are the generators, and N is the span of the
relations together with J times the ambient basis.  One reduced Groebner
basis of N serves both membership tests and the Hilbert series.
Relations and every other module element are ModVecs (see groebner.py),
sparse maps (ambient component, exponent) -> scalar, and a ModuleMap is
the tuple of its ModVec columns over the target generators.  A
subquotient (span(gens) + N)/N, such as a homology module, is presented
by subquotient() as a minimized cokernel.
"""

from __future__ import annotations

from typing import Sequence

from . import groebner as gb
from .groebner import ModVec
from .hilbert import HilbertSeries, lead_module_series
from .poly import MonomialOrder, Polynomial
from .rings import FreeModule, QuotientRing


def column_key(v: ModVec, order: MonomialOrder):
    """Canonical sort key of a module element: per ambient component, the
    (monomial key, coefficient repr) of its terms in descending order.

    Trailing empty components are left out; an empty component is the
    smallest entry, so vectors of any one ambient rank compare as if padded.
    """
    rank = 1 + max((comp for comp, _ in v), default=-1)
    comps: list[list] = [[] for _ in range(rank)]
    for (comp, e), c in v.items():
        comps[comp].append((order.key(e), repr(c)))
    return tuple(tuple(sorted(terms, reverse=True)) for terms in comps)


class FPModule:
    """Graded cokernel F/N over a QuotientRing, N = span(rels) + J * F.

    F is the free ambient module; its basis vectors are the generators.
    """

    def __init__(self, ambient: FreeModule, rels: Sequence[ModVec] = ()):
        self.ambient = ambient
        self.ring = ambient.ring
        self.rels = tuple(v for v in rels if v)
        for v in self.rels:
            if any(comp >= ambient.rank for comp, _ in v):
                raise ValueError("vector component outside the ambient rank")
            if gb.vec_degree(v, ambient.twists) is None:
                raise gb.InhomogeneousError("inhomogeneous column")
        self._basis = None
        self._hilbert = None
        self._minimal = None
        self._annihilator = None

    # -- constructors --

    @classmethod
    def cokernel(
        cls, ring: QuotientRing, twists: Sequence[int], rels: Sequence[ModVec] = ()
    ) -> FPModule:
        return cls(FreeModule(ring, len(twists), twists), rels)

    @classmethod
    def free(cls, ring: QuotientRing, twists: Sequence[int]) -> FPModule:
        return cls.cokernel(ring, twists, ())

    @classmethod
    def zero(cls, ring: QuotientRing) -> FPModule:
        return cls.cokernel(ring, (), ())

    @classmethod
    def quotient_by_ideal(cls, ring: QuotientRing, ideal: Sequence[Polynomial]) -> FPModule:
        return cls.cokernel(ring, (0,), [gb.column_to_vec((p,)) for p in ideal])

    # -- structure --

    def relation_columns(self) -> list[ModVec]:
        """Generators of N: the relations, then the J-multiples of the basis."""
        return list(self.rels) + self.ambient.j_columns()

    def _reduced_basis(self):
        """(order, reduced Groebner basis of N, its leading terms), built once
        and shared by membership tests and the Hilbert series."""
        if self._basis is None:
            order = gb.TermOverPosition(self.ring.poly_ring.order)
            basis = gb.buchberger(
                self.relation_columns(),
                self.ambient.twists,
                order,
                self.ring.field,
                rank=self.ambient.rank,
            )
            self._basis = (order, basis, [gb.leading_term(v, order) for v in basis])
        return self._basis

    def element_is_zero(self, v: ModVec) -> bool:
        """True if the ambient vector v lies in N."""
        order, basis, leads = self._reduced_basis()
        return not gb.normal_form(v, basis, order, self.ring.field, leads=leads)

    # -- invariants --

    def hilbert_series(self) -> HilbertSeries:
        if self._hilbert is None:
            _, _, leads = self._reduced_basis()
            self._hilbert = lead_module_series(
                leads, self.ambient.rank, self.ambient.twists, self.ring.nvars
            )
        return self._hilbert

    def dim(self):
        """Krull dimension: pole order of the Hilbert series (-inf if zero)."""
        return self.hilbert_series().pole_order

    def annihilator(self) -> list[Polynomial]:
        """Generators (in S, containing J) of ann_Q(M).

        Computed as the syzygy coefficient on the stacked column
        (e_1, ..., e_k) of the basis vectors inside the direct sum of k
        twisted copies of the ambient module, against all relations in
        each copy.
        """
        if self._annihilator is not None:
            return self._annihilator
        ring = self.ring.poly_ring
        k = self.ambient.rank
        if k == 0:
            self._annihilator = [ring.one]
            return self._annihilator
        twists = self.ambient.twists
        big_twists = [t - twists[j] for j in range(k) for t in twists]
        one = self.ring.field.one
        stacked = {(j * k + j, (0,) * self.ring.nvars): one for j in range(k)}
        cols = [stacked] + [
            gb.vec_offset(rel, j * k)
            for j in range(k)
            for rel in self.relation_columns()
        ]
        tagged = gb.TaggedBasis(cols, tuple(big_twists), ring)
        anns = []
        for s in tagged.syzygies():
            poly_terms = {e: c for (idx, e), c in s.items() if idx == 0}
            if poly_terms:
                anns.append(Polynomial(ring, poly_terms))
        anns = [self.ring.nf(p) for p in anns]
        anns = sorted({p for p in anns if not p.is_zero()}, key=lambda p: p.sort_key())
        self._annihilator = anns
        return self._annihilator

    # -- minimization --

    def minimize(self) -> FPModule:
        """Minimal cokernel presentation (no unit entries in the relations)."""
        if self._minimal is None:
            self._minimal = _minimal_cokernel(
                self.ring, self.ambient.twists, self.relation_columns()
            )
        return self._minimal

    def twist(self, w: int) -> FPModule:
        """Shift all internal degrees up by w (the module M(-w) convention
        is left to callers; this just adds w to every twist)."""
        F = FreeModule(
            self.ambient.ring,
            self.ambient.rank,
            tuple(t + w for t in self.ambient.twists),
        )
        return FPModule(F, self.rels)

    def __repr__(self):
        return f"FPModule(rank={self.ambient.rank}, rels={len(self.rels)})"


def subquotient(
    ambient: FreeModule, gens: Sequence[ModVec], rels: Sequence[ModVec] = ()
) -> FPModule:
    """The minimized cokernel form of (span(gens) + N)/N, with N the span
    of rels together with J times the ambient basis.

    The relations on the generators are the syzygies of [gens | N]
    projected to the gens coordinates (Singular's modulo).
    """
    ring = ambient.ring
    gens = [g for g in gens if g]
    rel_cols = [v for v in rels if v] + ambient.j_columns()
    if gens == [ambient.basis_vector(i) for i in range(ambient.rank)]:
        return _minimal_cokernel(ring, ambient.twists, rel_cols)
    k = len(gens)
    tagged = gb.TaggedBasis(gens + rel_cols, ambient.twists, ring.poly_ring)
    cols = []
    for s in tagged.syzygies():
        col = {t: c for t, c in s.items() if t[0] < k}
        if col:
            cols.append(col)
    degs = [gb.vec_degree(g, ambient.twists) for g in gens]
    return _minimal_cokernel(ring, degs, cols)


def _minimal_cokernel(ring: QuotientRing, degs: Sequence[int], cols: Sequence[ModVec]) -> FPModule:
    """Minimal cokernel presentation of the cokernel of cols on generators
    of the given degrees: unit entries are cancelled with their generator,
    duplicates dropped and the rest thinned to a minimal set modulo J."""
    cols = list(cols)
    degs = list(degs)
    field = ring.field
    zero_expo = (0,) * ring.nvars
    changed = True
    while changed:
        changed = False
        for ci, col in enumerate(cols):
            pivot = _unit_row(col, zero_expo)
            if pivot is None:
                continue
            lam_inv = field.inv(col[(pivot, zero_expo)])
            for cj, other in enumerate(cols):
                if cj == ci:
                    continue
                # other - (other's pivot entry / lam) * col
                coords = {
                    (1, e): field.neg(field.mul(c, lam_inv))
                    for (row, e), c in other.items()
                    if row == pivot
                }
                if coords:
                    coords[(0, zero_expo)] = field.one
                    cols[cj] = gb.vec_combination([other, col], coords, field)
            del cols[ci]
            cols = [_drop_row(c, pivot) for c in cols]
            del degs[pivot]
            changed = True
            break
    order = ring.poly_ring.order
    clean = {}
    for c in cols:
        if c:
            clean.setdefault(column_key(c, order), c)
    # Relations are only defined modulo J, so redundancy is tested
    # against the kept columns together with the J-multiples.
    ambient = FreeModule(ring, len(degs), tuple(degs))
    kept = min_gens(
        [clean[key] for key in sorted(clean)], ambient, baseline=ambient.j_columns()
    )
    result = FPModule(ambient, kept)
    result._minimal = result
    return result


def _unit_row(col: ModVec, zero_expo) -> int | None:
    """The first row whose entry in col is a nonzero constant, or None."""
    for row in sorted(comp for comp, e in col if e == zero_expo):
        if sum(1 for comp, _ in col if comp == row) == 1:
            return row
    return None


def _drop_row(col: ModVec, row: int) -> ModVec:
    """col without component row; later components move up by one."""
    return {
        (comp - (comp > row), e): c for (comp, e), c in col.items() if comp != row
    }


class ModuleMap:
    """Degree-0 graded map between FPModules, given on generators.

    columns[j] is the image of source generator j as a ModVec over the
    target generators (component i holds the coefficient of target
    generator i).
    """

    def __init__(self, source: FPModule, target: FPModule, columns: Sequence[ModVec]):
        self.source = source
        self.target = target
        self.columns = tuple(columns)
        if len(self.columns) != source.ambient.rank:
            raise ValueError("one column per source generator required")
        if any(comp >= target.ambient.rank for col in self.columns for comp, _ in col):
            raise ValueError("column component outside the target generators")

    @classmethod
    def zero(cls, source: FPModule, target: FPModule) -> ModuleMap:
        return cls(source, target, [{} for _ in range(source.ambient.rank)])

    @classmethod
    def multiplication(cls, module: FPModule, c: Polynomial) -> ModuleMap:
        """Multiplication by c as a degree-0 map M(twisted) -> M."""
        d = c.homogeneous_degree()
        if d is None:
            if not c.is_zero():
                raise gb.InhomogeneousError("multiplier must be homogeneous")
            d = 0
        columns = [
            {(j, e): v for e, v in c.terms.items()} for j in range(module.ambient.rank)
        ]
        return cls(module.twist(d), module, columns)

    def is_well_defined(self) -> bool:
        """Image of every source relation lies in the target relations."""
        field = self.source.ring.field
        return all(
            self.target.element_is_zero(gb.vec_combination(self.columns, rel, field))
            for rel in self.source.relation_columns()
        )

    def kernel(self) -> list[ModVec]:
        """Generators of the kernel, as vectors of the source's ambient
        module in canonical order.

        Coefficient vectors c whose combination of the columns lies in the
        target relations are found by syzygies of [columns | target
        relations] projected to the source coordinates.
        """
        ring = self.source.ring.poly_ring
        n_cols = len(self.columns)
        cols = list(self.columns) + self.target.relation_columns()
        tagged = gb.TaggedBasis(cols, self.target.ambient.twists, ring)
        gens = {}
        for s in tagged.syzygies():
            vec = {t: c for t, c in s.items() if t[0] < n_cols}
            if vec:
                gens.setdefault(column_key(vec, ring.order), vec)
        return [gens[key] for key in sorted(gens)]

    def __repr__(self):
        return f"ModuleMap({self.source.ambient.rank} -> {self.target.ambient.rank})"


def min_gens(
    columns: Sequence[ModVec], ambient: FreeModule, baseline: Sequence[ModVec] = ()
) -> list[ModVec]:
    """A minimal generating subset of the given homogeneous columns.

    Greedy by ascending degree with membership tests against the kept
    part; for graded modules this realizes the Nakayama minimal count.
    Baseline columns (e.g. the J-multiples of the basis, when generation
    is only needed modulo J) always span but are never kept.
    """
    ring = ambient.ring.poly_ring
    field = ambient.ring.field
    order = gb.TermOverPosition(ring.order)
    candidates = sorted(
        (c for c in columns if c),
        key=lambda v: (gb.vec_degree(v, ambient.twists), column_key(v, ring.order)),
    )
    base_vecs = [v for v in baseline if v]
    kept: list[ModVec] = []

    def rebuild():
        return gb.buchberger(
            kept + base_vecs, ambient.twists, order, field, rank=ambient.rank
        )

    basis = rebuild() if base_vecs else []
    for cand in candidates:
        if basis and not gb.normal_form(cand, basis, order, field):
            continue
        kept.append(cand)
        basis = rebuild()
    return kept
