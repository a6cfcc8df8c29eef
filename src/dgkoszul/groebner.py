"""Groebner bases for submodules of graded free modules.

All computation happens over the ambient polynomial ring S; quotient-ring
submodules are handled by the callers adjoining J-multiples of the basis
vectors.  A module element (ModVec) is a sparse map

    (component, exponent tuple) -> nonzero scalar

over a free module with an integer twist per component (the internal
degree of that basis vector), so that a term's degree is
deg(monomial) + twist[component].  It is the only module-element type of
the package: generators, relations, kernels and syzygies are all ModVecs.
Polynomial matrices (differentials, module maps) meet it through
column_to_vec and vec_to_column.

Determinism: S-pairs are processed in (degree, index, index) order, the
output basis is reduced, monic, inter-reduced and canonically sorted, so
identical inputs give identical outputs.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .poly import (
    Expo,
    MonomialOrder,
    PolyRing,
    Polynomial,
    mono_deg,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_lcm,
    mono_mul,
)

ModTerm = tuple  # (component, exponent tuple)
ModVec = dict  # ModTerm -> scalar

DEFAULT_DEGREE_CAP = 40
_degree_cap = DEFAULT_DEGREE_CAP


def set_degree_cap(cap: int) -> None:
    """Set the global S-pair degree cap (the CLI --degree-cap flag)."""
    global _degree_cap
    _degree_cap = cap


def get_degree_cap() -> int:
    return _degree_cap


class InhomogeneousError(ValueError):
    pass


class DegreeCapExceeded(RuntimeError):
    """Raised when Buchberger would process an S-pair above the degree cap."""

    def __init__(self, cap: int, degree: int):
        super().__init__(
            f"S-pair of degree {degree} exceeds the configured cap {cap}"
        )
        self.cap = cap
        self.degree = degree


# ---------- module monomial orders ----------

class ModuleOrder:
    def key(self, t: ModTerm):
        raise NotImplementedError


class TermOverPosition(ModuleOrder):
    """Compare monomials by the ring order first, lower component wins ties."""

    def __init__(self, mono_order: MonomialOrder):
        self.mono = mono_order

    def key(self, t: ModTerm):
        comp, e = t
        return (self.mono.key(e), -comp)


class PositionOverTerm(ModuleOrder):
    """Lower component dominates; ring order breaks ties within a component."""

    def __init__(self, mono_order: MonomialOrder):
        self.mono = mono_order

    def key(self, t: ModTerm):
        comp, e = t
        return (-comp, self.mono.key(e))


class EliminationOrder(ModuleOrder):
    """Every term in components < split beats every term in components >= split.

    Used by the tagged-basis machinery: the ambient block is eliminated
    ahead of the tag block, so basis elements supported purely on tags are
    exactly the syzygies.
    """

    def __init__(self, split: int, front: ModuleOrder, back: ModuleOrder):
        self.split = split
        self.front = front
        self.back = back

    def key(self, t: ModTerm):
        comp, _ = t
        if comp < self.split:
            return (1, self.front.key(t))
        return (0, self.back.key(t))


# ---------- module element helpers ----------

def vec_add(a: ModVec, b: ModVec, field) -> ModVec:
    out = dict(a)
    for t, c in b.items():
        s = field.add(out.get(t, field.zero), c)
        if s == field.zero:
            out.pop(t, None)
        else:
            out[t] = s
    return out


def vec_scale(a: ModVec, c, field) -> ModVec:
    if c == field.zero:
        return {}
    return {t: field.mul(c, v) for t, v in a.items()}


def vec_mul_term(a: ModVec, e: Expo, c, field) -> ModVec:
    if c == field.zero:
        return {}
    return {(comp, mono_mul(e, e0)): field.mul(c, v) for (comp, e0), v in a.items()}


def vec_combination(vectors: Sequence[ModVec], coords: ModVec, field) -> ModVec:
    """sum of c * x^e * vectors[j] over the terms (j, e) -> c of coords."""
    out: ModVec = {}
    for (j, e), c in coords.items():
        for (comp, e0), v in vectors[j].items():
            t = (comp, mono_mul(e, e0))
            s = field.add(out.get(t, field.zero), field.mul(c, v))
            if s == field.zero:
                out.pop(t, None)
            else:
                out[t] = s
    return out


def vec_degree(a: ModVec, twists) -> int | None:
    """Common homogeneous degree, or None if mixed (zero gives None)."""
    degs = {mono_deg(e) + twists[comp] for (comp, e) in a}
    if len(degs) == 1:
        return degs.pop()
    return None


def leading_term(a: ModVec, order: ModuleOrder) -> ModTerm:
    return max(a, key=order.key)


def vec_sort_key(a: ModVec, order: ModuleOrder):
    return tuple(sorted((order.key(t) for t in a), reverse=True))


# ---------- division ----------

def normal_form(
    f: ModVec,
    basis: Sequence[ModVec],
    order: ModuleOrder,
    field,
    select: str = "first",
) -> ModVec:
    """Fully reduced remainder of f modulo basis (tail reduction included).

    select chooses among applicable reductors ("first" or "last" in list
    order); the remainder is independent of this choice when basis is a
    Groebner basis.
    """
    leads = [leading_term(g, order) if g else None for g in basis]
    work = dict(f)
    rem: ModVec = {}
    while work:
        t = max(work, key=order.key)
        c = work[t]
        comp, e = t
        chosen = None
        indices = range(len(basis)) if select == "first" else range(len(basis) - 1, -1, -1)
        for i in indices:
            lt = leads[i]
            if lt is not None and lt[0] == comp and mono_divides(lt[1], e):
                chosen = i
                break
        if chosen is None:
            rem[t] = c
            del work[t]
            continue
        g = basis[chosen]
        u = mono_div(e, leads[chosen][1])
        factor = field.div(c, g[leads[chosen]])
        work = vec_add(work, vec_mul_term(g, u, field.neg(factor), field), field)
    return rem


def _spair(f: ModVec, g: ModVec, order: ModuleOrder, field):
    """S-vector of f, g with leads in the same component, or None."""
    (cf, ef) = leading_term(f, order)
    (cg, eg) = leading_term(g, order)
    if cf != cg:
        return None
    lcm = mono_lcm(ef, eg)
    a = vec_mul_term(f, mono_div(lcm, ef), field.inv(f[(cf, ef)]), field)
    b = vec_mul_term(g, mono_div(lcm, eg), field.inv(g[(cg, eg)]), field)
    return vec_add(a, vec_scale(b, field.neg(field.one), field), field)


def _pair_degree(f, g, order, twists):
    (cf, ef) = leading_term(f, order)
    (_, eg) = leading_term(g, order)
    return mono_deg(mono_lcm(ef, eg)) + twists[cf]


# ---------- Buchberger ----------

def buchberger(
    gens: Sequence[ModVec],
    twists: Sequence[int],
    order: ModuleOrder,
    field,
    rank: int,
    degree_cap: int | None = None,
    allow_inhomogeneous: bool = False,
) -> list[ModVec]:
    """Reduced Groebner basis of the submodule generated by gens.

    Raises InhomogeneousError unless every generator is homogeneous with
    respect to the twists (or allow_inhomogeneous is set, as needed by the
    radical-membership certificate), and DegreeCapExceeded if an S-pair
    above the cap would have to be processed.
    """
    if degree_cap is None:
        degree_cap = _degree_cap
    if not allow_inhomogeneous:
        for g in gens:
            if g and vec_degree(g, twists) is None:
                raise InhomogeneousError("inhomogeneous generator")

    basis: list[ModVec] = []
    for g in gens:
        if g:
            lt = leading_term(g, order)
            basis.append(vec_scale(g, field.inv(g[lt]), field))

    heap: list[tuple[int, int, int]] = []
    for j in range(len(basis)):
        for i in range(j):
            if leading_term(basis[i], order)[0] == leading_term(basis[j], order)[0]:
                heapq.heappush(
                    heap, (_pair_degree(basis[i], basis[j], order, twists), i, j)
                )

    while heap:
        deg, i, j = heapq.heappop(heap)
        if deg > degree_cap:
            raise DegreeCapExceeded(degree_cap, deg)
        f, g = basis[i], basis[j]
        (cf, ef) = leading_term(f, order)
        (cg, eg) = leading_term(g, order)
        if cf != cg:
            continue
        # Product criterion is only valid in the rank-1 (ideal) case.
        if rank == 1 and mono_gcd(ef, eg) == (0,) * len(ef):
            continue
        s = _spair(f, g, order, field)
        if s is None:
            continue
        r = normal_form(s, basis, order, field)
        if r:
            lt = leading_term(r, order)
            r = vec_scale(r, field.inv(r[lt]), field)
            basis.append(r)
            new = len(basis) - 1
            for k in range(new):
                if leading_term(basis[k], order)[0] == lt[0]:
                    heapq.heappush(
                        heap,
                        (_pair_degree(basis[k], r, order, twists), k, new),
                    )
    return interreduce(basis, order, field)


def interreduce(basis: Sequence[ModVec], order: ModuleOrder, field) -> list[ModVec]:
    """Minimalize leads, tail-reduce, monicize, sort canonically."""
    nonzero = [g for g in basis if g]
    nonzero.sort(key=lambda g: order.key(leading_term(g, order)))
    kept: list[ModVec] = []
    for g in nonzero:
        comp, e = leading_term(g, order)
        if any(
            lt[0] == comp and mono_divides(lt[1], e)
            for lt in (leading_term(h, order) for h in kept)
        ):
            continue
        kept.append(g)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        r = normal_form(g, others, order, field) if others else dict(g)
        if r:
            lt = leading_term(r, order)
            reduced.append(vec_scale(r, field.inv(r[lt]), field))
    reduced.sort(key=lambda g: vec_sort_key(g, order), reverse=True)
    return reduced


# ---------- tagged bases: syzygies, membership and lifts in one engine ----------

class TaggedBasis:
    """Groebner basis of {(col_j, e_j)} in F + S^s with F eliminated first.

    Gives, for the span of the columns inside the free module F:
      * a Groebner basis of the span (the F-parts with nonzero F-lead),
      * generators of the syzygy module (tag parts of the rest),
      * normal forms and explicit lift coefficients for membership.
    """

    def __init__(
        self,
        columns: Sequence[ModVec],
        twists: Sequence[int],
        ring: PolyRing,
    ):
        self.ring = ring
        self.field = ring.field
        self.rank = len(twists)
        self.columns = list(columns)
        zero_expo = (0,) * ring.nvars

        col_degs = []
        tagged = []
        self.zero_columns = []
        for j, col in enumerate(self.columns):
            if not col:
                self.zero_columns.append(j)
                col_degs.append(0)
                continue
            d = vec_degree(col, twists)
            if d is None:
                raise InhomogeneousError("inhomogeneous column")
            col_degs.append(d)
            v = dict(col)
            v[(self.rank + j, zero_expo)] = self.field.one
            tagged.append(v)

        mono = ring.order
        self.order = EliminationOrder(
            self.rank,
            front=TermOverPosition(mono),
            back=PositionOverTerm(mono),
        )
        self.tagged_gb = buchberger(
            tagged,
            tuple(twists) + tuple(col_degs),
            self.order,
            self.field,
            rank=self.rank + len(self.columns),
        )
        self.span_gb: list[ModVec] = []
        self._syz: list[ModVec] = []
        for g in self.tagged_gb:
            fpart = {t: c for t, c in g.items() if t[0] < self.rank}
            if fpart:
                self.span_gb.append(fpart)
            else:
                self._syz.append(
                    {(t[0] - self.rank, t[1]): c for t, c in g.items()}
                )

    def syzygies(self) -> list[ModVec]:
        """Generators of the syzygy module of the columns (zero columns
        contribute their basis vector)."""
        zero_expo = (0,) * self.ring.nvars
        extra = [{(j, zero_expo): self.field.one} for j in self.zero_columns]
        return [dict(s) for s in self._syz] + extra

    def reduce(self, v: ModVec) -> ModVec:
        """Normal form of v in F modulo the span of the columns."""
        return normal_form(v, self.span_gb, self.order, self.field) if self.span_gb else dict(v)

    def lift(self, v: ModVec):
        """Coefficients c with v = sum_j c_j * col_j, or None if v is not
        in the span.  Each c_j is an {expo: coeff} polynomial dict."""
        rem = normal_form(v, self.tagged_gb, self.order, self.field)
        coeffs = [dict() for _ in self.columns]
        for (comp, e), c in rem.items():
            if comp < self.rank:
                return None
            coeffs[comp - self.rank][e] = self.field.neg(c)
        return coeffs


# ---------- matrix columns ----------

def column_to_vec(entries: Iterable[Polynomial]) -> ModVec:
    """A matrix column, given top to bottom as Polynomials, as a ModVec."""
    return {
        (comp, e): c for comp, p in enumerate(entries) for e, c in p.terms.items()
    }


def vec_to_column(v: ModVec, ring: PolyRing, rank: int) -> tuple[Polynomial, ...]:
    """The rank entries of v as a matrix column of Polynomials."""
    buckets: list[dict] = [dict() for _ in range(rank)]
    for (comp, e), c in v.items():
        buckets[comp][e] = c
    return tuple(Polynomial(ring, b) for b in buckets)
