"""Finitely presented graded modules as subquotients, and maps between them.

An FPModule is (generators, relations) inside a common free ambient module
over Q = S/J; the module is span(gens) + N modulo N, where N is the span
of the relations together with J times the ambient basis.  Generators,
relations and every other module element are ModVecs (see groebner.py),
sparse maps (ambient component, exponent) -> scalar, and a ModuleMap is
the tuple of its ModVec columns over the target generators.  Most
constructions return modules in cokernel form (generators equal to the
ambient basis); kernels and homology pass through general subquotients and
are minimized back to cokernel form.
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
    """Graded subquotient over a QuotientRing."""

    def __init__(
        self,
        ambient: FreeModule,
        gens: Sequence[ModVec],
        rels: Sequence[ModVec] = (),
        check: bool = True,
    ):
        self.ambient = ambient
        self.ring = ambient.ring
        self.gens = tuple(gens)
        self.rels = tuple(v for v in rels if v)
        if check:
            for v in self.gens + self.rels:
                if any(comp >= ambient.rank for comp, _ in v):
                    raise ValueError("vector component outside the ambient rank")
                if v and gb.vec_degree(v, ambient.twists) is None:
                    raise gb.InhomogeneousError("inhomogeneous column")
        self._gen_degrees = None
        self._rels_tagged = None
        self._gen_relations = None
        self._hilbert = None
        self._minimal = None
        self._annihilator = None

    # -- constructors --

    @classmethod
    def cokernel(
        cls, ring: QuotientRing, twists: Sequence[int], rels: Sequence[ModVec] = ()
    ) -> FPModule:
        F = FreeModule(ring, len(twists), twists)
        return cls(F, [F.basis_vector(i) for i in range(F.rank)], rels)

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

    @property
    def is_cokernel(self) -> bool:
        if len(self.gens) != self.ambient.rank:
            return False
        return all(
            self.gens[i] == self.ambient.basis_vector(i)
            for i in range(self.ambient.rank)
        )

    def gen_degrees(self) -> tuple[int, ...]:
        if self._gen_degrees is None:
            degs = []
            for i, v in enumerate(self.gens):
                d = gb.vec_degree(v, self.ambient.twists)
                if d is None:
                    # zero generator: keep a placeholder degree
                    d = self.ambient.twists[i] if self.is_cokernel else 0
                degs.append(d)
            self._gen_degrees = tuple(degs)
        return self._gen_degrees

    def _relation_columns(self) -> list[ModVec]:
        return list(self.rels) + self.ambient.j_columns()

    def rels_tagged(self) -> gb.TaggedBasis:
        """Tagged basis of N = span(rels) + J * ambient."""
        if self._rels_tagged is None:
            self._rels_tagged = gb.TaggedBasis(
                self._relation_columns(), self.ambient.twists, self.ring.poly_ring
            )
        return self._rels_tagged

    def element_is_zero(self, v: ModVec) -> bool:
        """True if the ambient vector v lies in N."""
        return not self.rels_tagged().reduce(v)

    def is_zero_module(self) -> bool:
        return all(self.element_is_zero(g) for g in self.gens)

    def element_from_coords(self, coords: ModVec) -> ModVec:
        """Ambient vector of sum_j coords_j * gens[j]; coords is a ModVec
        over the generator indices (a syzygy, or a matrix column)."""
        return gb.vec_combination(self.gens, coords, self.ring.field)

    def gen_relations(self) -> list[ModVec]:
        """Columns c in S^k with sum c_j gens_j in N: the presentation of
        this module as a cokernel on its generators."""
        if self._gen_relations is not None:
            return self._gen_relations
        if self.is_cokernel:
            self._gen_relations = self._relation_columns()
            return self._gen_relations
        k = len(self.gens)
        tagged = gb.TaggedBasis(
            list(self.gens) + self._relation_columns(),
            self.ambient.twists,
            self.ring.poly_ring,
        )
        out = []
        for s in tagged.syzygies():
            col = {t: c for t, c in s.items() if t[0] < k}
            if col:
                out.append(col)
        self._gen_relations = out
        return out

    def presentation(self) -> FPModule:
        """The same module in cokernel form on its current generators."""
        if self.is_cokernel:
            return self
        return FPModule.cokernel(self.ring, self.gen_degrees(), self.gen_relations())

    # -- invariants --

    def hilbert_series(self) -> HilbertSeries:
        if self._hilbert is not None:
            return self._hilbert
        order = gb.TermOverPosition(self.ring.poly_ring.order)
        rel_cols = self._relation_columns()
        series_n = self._series_of_quotient(rel_cols, order)
        if self.is_cokernel:
            self._hilbert = series_n
            return self._hilbert
        series_gn = self._series_of_quotient(rel_cols + list(self.gens), order)
        self._hilbert = series_n - series_gn
        return self._hilbert

    def _series_of_quotient(self, cols, order) -> HilbertSeries:
        basis = gb.buchberger(
            cols,
            self.ambient.twists,
            order,
            self.ring.field,
            rank=self.ambient.rank,
        )
        leads = [gb.leading_term(v, order) for v in basis]
        return lead_module_series(
            leads, self.ambient.rank, self.ambient.twists, self.ring.nvars
        )

    def dim(self):
        """Krull dimension: pole order of the Hilbert series (-inf if zero)."""
        return self.hilbert_series().pole_order

    def annihilator(self) -> list[Polynomial]:
        """Generators (in S, containing J) of ann_Q(M).

        Computed as the syzygy coefficient on the stacked column
        (g_1, ..., g_k) inside the direct sum of k twisted copies of the
        ambient module, against all relations in each copy.
        """
        if self._annihilator is not None:
            return self._annihilator
        ring = self.ring.poly_ring
        k = len(self.gens)
        if k == 0:
            self._annihilator = [ring.one]
            return self._annihilator
        r = self.ambient.rank
        degs = self.gen_degrees()
        big_twists = []
        for j in range(k):
            big_twists.extend(t - degs[j] for t in self.ambient.twists)
        stacked: ModVec = {}
        for j, g in enumerate(self.gens):
            stacked.update(gb.vec_offset(g, j * r))
        cols = [stacked] + [
            gb.vec_offset(rel, j * r)
            for j in range(k)
            for rel in self._relation_columns()
            if rel
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
        if self._minimal is not None:
            return self._minimal
        cols = list(self.gen_relations())
        degs = list(self.gen_degrees())
        field = self.ring.field
        zero_expo = (0,) * self.ring.nvars
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
        order = self.ring.poly_ring.order
        clean = {}
        for c in cols:
            if c:
                clean.setdefault(column_key(c, order), c)
        # Relations are only defined modulo J, so redundancy is tested
        # against the kept columns together with the J-multiples.
        ambient = FreeModule(self.ring, len(degs), tuple(degs))
        kept = min_gens(
            [clean[key] for key in sorted(clean)], ambient, baseline=ambient.j_columns()
        )
        result = FPModule.cokernel(self.ring, tuple(degs), kept)
        result._minimal = result
        self._minimal = result
        return result

    def twist(self, w: int) -> FPModule:
        """Shift all internal degrees up by w (the module M(-w) convention
        is left to callers; this just adds w to every twist)."""
        F = FreeModule(
            self.ambient.ring,
            self.ambient.rank,
            tuple(t + w for t in self.ambient.twists),
        )
        return FPModule(F, self.gens, self.rels, check=False)

    def __repr__(self):
        return (
            f"FPModule(rank={self.ambient.rank}, gens={len(self.gens)}, "
            f"rels={len(self.rels)})"
        )


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
        if len(self.columns) != len(source.gens):
            raise ValueError("one column per source generator required")
        if any(comp >= len(target.gens) for col in self.columns for comp, _ in col):
            raise ValueError("column component outside the target generators")

    @classmethod
    def zero(cls, source: FPModule, target: FPModule) -> ModuleMap:
        return cls(source, target, [{} for _ in source.gens])

    @classmethod
    def multiplication(cls, module: FPModule, c: Polynomial) -> ModuleMap:
        """Multiplication by c as a degree-0 map M(twisted) -> M."""
        d = c.homogeneous_degree()
        if d is None:
            if not c.is_zero():
                raise gb.InhomogeneousError("multiplier must be homogeneous")
            d = 0
        columns = [{(j, e): v for e, v in c.terms.items()} for j in range(len(module.gens))]
        return cls(module.twist(d), module, columns)

    def is_well_defined(self) -> bool:
        """Image of every source relation lies in the target relations."""
        field = self.source.ring.field
        for rel in self.source.gen_relations():
            coords = gb.vec_combination(self.columns, rel, field)
            if not self.target.element_is_zero(self.target.element_from_coords(coords)):
                return False
        return True

    def kernel(self) -> FPModule:
        """Kernel as a subquotient of the source.

        Coefficient vectors c whose combination of the columns lies in the
        target relations are found by syzygies of [columns | target
        presentation] projected to the source coordinates.
        """
        ring = self.source.ring.poly_ring
        n_cols = len(self.columns)
        cols = list(self.columns) + list(self.target.gen_relations())
        tagged = gb.TaggedBasis(cols, self.target.gen_degrees(), ring)
        gens = {}
        for s in tagged.syzygies():
            coeffs = {t: c for t, c in s.items() if t[0] < n_cols}
            if not coeffs:
                continue
            vec = self.source.element_from_coords(coeffs)
            if vec:
                gens.setdefault(column_key(vec, ring.order), vec)
        dedup = [gens[key] for key in sorted(gens)]
        return FPModule(self.source.ambient, dedup, self.source.rels, check=False)

    def __repr__(self):
        return f"ModuleMap({len(self.source.gens)} -> {len(self.target.gens)})"


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
