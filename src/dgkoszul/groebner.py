"""Groebner bases for submodules of graded free modules.

All computation happens over the ambient polynomial ring S; quotient-ring
submodules are handled by the callers adjoining J-multiples of the basis
vectors.  A module element (ModVec) is a sparse map

    (component, exponent tuple) -> nonzero scalar

over a free module with an integer twist per component (the internal
degree of that basis vector), so that a term's degree is
deg(monomial) + twist[component].  It is the only module-element type of
the package: generators, relations, kernels and syzygies are all ModVecs,
and a map of free modules (a differential or a module map) is the
tuple of its columns, column j the ModVec of the image of source generator
j in target-generator coordinates.  Composition is vec_combination.
column_to_vec and vec_to_column convert a column to and from Polynomial
entries where ring elements enter or leave as Polynomials.

Determinism: S-pairs are processed in (degree, index, index) order, the
output basis is reduced, monic, inter-reduced and canonically sorted, so
identical inputs give identical outputs.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .poly import (
    Expo,
    PolyRing,
    Polynomial,
    grevlex_key,
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


# ---------- module term orders ----------

def term_key(t: ModTerm):
    """Sort key of the term-over-position order: grevlex on the monomial
    first, the lower component wins ties.  A larger key is a larger term."""
    comp, e = t
    return (grevlex_key(e), -comp)


def _elimination_key(split: int):
    """Sort key in which every term in components < split beats every term
    in components >= split: term over position below split, position over
    term from split on.

    Used by syzygies(): the ambient block is eliminated ahead of the tag
    block, so basis elements supported purely on tags are exactly the
    syzygies.
    """

    def key(t: ModTerm):
        comp, e = t
        if comp < split:
            return (1, term_key(t))
        return (0, (-comp, grevlex_key(e)))

    return key


def column_key(v: ModVec):
    """Canonical sort key of a module element: per ambient component, the
    (monomial key, coefficient repr) of its terms in descending order.

    Trailing empty components are left out; an empty component is the
    smallest entry, so vectors of any one ambient rank compare as if padded.
    """
    rank = 1 + max((comp for comp, _ in v), default=-1)
    comps: list[list] = [[] for _ in range(rank)]
    for (comp, e), c in v.items():
        comps[comp].append((grevlex_key(e), repr(c)))
    return tuple(tuple(sorted(terms, reverse=True)) for terms in comps)


# ---------- module element helpers ----------

def vec_scale(a: ModVec, c, field) -> ModVec:
    return {t: field.mul(c, v) for t, v in a.items()}


def vec_offset(a: ModVec, offset: int) -> ModVec:
    """a with every component moved up by offset: its image in a block of
    a direct sum."""
    return {(comp + offset, e): c for (comp, e), c in a.items()}


def vec_add_multiple(out: ModVec, a: ModVec, e: Expo, c, field) -> None:
    """out += c * x^e * a, in place; terms that cancel are removed."""
    for (comp, e0), v in a.items():
        t = (comp, mono_mul(e, e0))
        s = field.add(out.get(t, field.zero), field.mul(c, v))
        if s == field.zero:
            out.pop(t, None)
        else:
            out[t] = s


def vec_combination(vectors: Sequence[ModVec], coords: ModVec, field) -> ModVec:
    """sum of c * x^e * vectors[j] over the terms (j, e) -> c of coords."""
    out: ModVec = {}
    for (j, e), c in coords.items():
        vec_add_multiple(out, vectors[j], e, c, field)
    return out


def vec_degree(a: ModVec, twists) -> int | None:
    """Common homogeneous degree, or None if mixed (zero gives None)."""
    degs = {mono_deg(e) + twists[comp] for (comp, e) in a}
    if len(degs) == 1:
        return degs.pop()
    return None


def leading_term(a: ModVec, key=term_key) -> ModTerm:
    return max(a, key=key)


class _TermKeys(dict):
    """The order keys of the terms seen so far, each computed once."""

    def __init__(self, key):
        super().__init__()
        self.order_key = key

    def __missing__(self, t: ModTerm):
        k = self[t] = self.order_key(t)
        return k


# ---------- division ----------

def normal_form(
    f: ModVec,
    basis: Sequence[ModVec],
    field,
    leads: Sequence[ModTerm | None] | None = None,
    key=term_key,
) -> ModVec:
    """Fully reduced remainder of f modulo basis (tail reduction included).

    Each step reduces by the first applicable element in list order; the
    remainder does not depend on that order when basis is a Groebner basis.
    leads, if given, are the basis' leading terms (None for a zero
    element); callers that reduce many vectors modulo one basis pass them
    so they are computed once.  key is the term order's sort key.
    """
    if leads is None:
        leads = [leading_term(g, key) if g else None for g in basis]
    keys = _TermKeys(key)
    work = dict(f)
    rem: ModVec = {}
    while work:
        t = max(work, key=keys.__getitem__)
        c = work[t]
        comp, e = t
        for i, lt in enumerate(leads):
            if lt is not None and lt[0] == comp and mono_divides(lt[1], e):
                break
        else:
            rem[t] = c
            del work[t]
            continue
        g = basis[i]
        factor = field.neg(field.div(c, g[lt]))
        vec_add_multiple(work, g, mono_div(e, lt[1]), factor, field)
    return rem


# ---------- Buchberger ----------

def buchberger(
    gens: Sequence[ModVec],
    twists: Sequence[int],
    field,
    degree_cap: int | None = None,
    allow_inhomogeneous: bool = False,
    key=term_key,
) -> list[ModVec]:
    """Reduced Groebner basis of the submodule generated by gens, in the
    free module with one twist per component, for the term order key.

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

    # The basis is kept monic; leads[k] is the leading term of basis[k].
    basis: list[ModVec] = []
    leads: list[ModTerm] = []
    heap: list[tuple[int, int, int]] = []

    def add(v: ModVec) -> None:
        lt = leading_term(v, key)
        comp, e = lt
        new = len(basis)
        basis.append(vec_scale(v, field.inv(v[lt]), field))
        leads.append(lt)
        for k in range(new):
            ck, ek = leads[k]
            if ck == comp:
                heapq.heappush(heap, (mono_deg(mono_lcm(ek, e)) + twists[comp], k, new))

    for g in gens:
        if g:
            add(g)

    neg_one = field.neg(field.one)
    while heap:
        deg, i, j = heapq.heappop(heap)
        if deg > degree_cap:
            raise DegreeCapExceeded(degree_cap, deg)
        (_, ef), (_, eg) = leads[i], leads[j]
        # Product criterion is only valid in the rank-1 (ideal) case.
        if len(twists) == 1 and mono_gcd(ef, eg) == (0,) * len(ef):
            continue
        # S-vector of the monic basis[i], basis[j]: their leads cancel.
        lcm = mono_lcm(ef, eg)
        s: ModVec = {}
        vec_add_multiple(s, basis[i], mono_div(lcm, ef), field.one, field)
        vec_add_multiple(s, basis[j], mono_div(lcm, eg), neg_one, field)
        r = normal_form(s, basis, field, leads=leads, key=key)
        if r:
            add(r)
    return interreduce(basis, field, key)


def interreduce(basis: Sequence[ModVec], field, key=term_key) -> list[ModVec]:
    """Minimalize leads, tail-reduce, monicize, sort canonically."""
    nonzero = [(leading_term(g, key), g) for g in basis if g]
    nonzero.sort(key=lambda pair: key(pair[0]))
    kept: list[ModVec] = []
    kept_leads: list[ModTerm] = []
    for lt, g in nonzero:
        comp, e = lt
        if any(c == comp and mono_divides(l, e) for c, l in kept_leads):
            continue
        kept.append(g)
        kept_leads.append(lt)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        others_leads = kept_leads[:idx] + kept_leads[idx + 1:]
        r = normal_form(g, others, field, leads=others_leads, key=key) if others else dict(g)
        if r:
            # No other lead divides g's lead, so r keeps it.
            reduced.append(vec_scale(r, field.inv(r[kept_leads[idx]]), field))
    reduced.sort(key=lambda g: sorted(map(key, g), reverse=True), reverse=True)
    return reduced


# ---------- syzygies ----------

def syzygies(columns: Sequence[ModVec], twists: Sequence[int], ring: PolyRing) -> list[ModVec]:
    """Generators of the syzygy module of the columns, which lie in the
    free module F with the given twists.

    They are read off one Groebner basis of {(col_j, e_j)} in F + S^s with
    F eliminated first: an element led by a tag has no F-part, so it is a
    syzygy.  Those come in buchberger's output order, then the unit
    vector of each zero column.
    """
    field = ring.field
    rank = len(twists)
    zero_expo = (0,) * ring.nvars
    col_degs = []
    tagged = []
    for j, col in enumerate(columns):
        d = vec_degree(col, twists) if col else 0
        if d is None:
            raise InhomogeneousError("inhomogeneous column")
        col_degs.append(d)
        if col:
            tagged.append({**col, (rank + j, zero_expo): field.one})
    key = _elimination_key(rank)
    basis = buchberger(tagged, tuple(twists) + tuple(col_degs), field, key=key)
    syz = [
        {(comp - rank, e): c for (comp, e), c in g.items()}
        for g in basis
        if leading_term(g, key)[0] >= rank
    ]
    return syz + [{(j, zero_expo): field.one} for j, col in enumerate(columns) if not col]


# ---------- columns with Polynomial entries ----------

def column_to_vec(entries: Iterable[Polynomial]) -> ModVec:
    """A column, given top to bottom as Polynomials, as a ModVec."""
    return {
        (comp, e): c for comp, p in enumerate(entries) for e, c in p.terms.items()
    }


def vec_to_column(v: ModVec, ring: PolyRing, rank: int) -> tuple[Polynomial, ...]:
    """The rank entries of v as a column of Polynomials."""
    buckets: list[dict] = [dict() for _ in range(rank)]
    for (comp, e), c in v.items():
        buckets[comp][e] = c
    return tuple(Polynomial(ring, b) for b in buckets)
