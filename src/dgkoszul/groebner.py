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

Packed terms.  buchberger, normal_form, leading_terms and syzygies take
and return ModVecs, but inside one call every term is one int whose
integer order is the module term order, built by a _Packer sized for that
call.  With n variables and fields w bits wide (2^w exceeds the largest
monomial degree the call can reach), from the top bit down:

    block bit              set for the components before `split`
    upper component slot   C - comp for the components from `split` on
    n weight fields        deg, e_1 + ... + e_(n-1), ..., e_1 (w bits each)
    lower component slot   C - comp for the components before `split`
    n exponent fields      e_n, ..., e_1 (w bits and a guard bit each)

where C is the last component.  The weight fields compare
lexicographically exactly as grevlex.  Below `split` (all components by
default) the order is term over position: the monomial first, the lower
component wins ties.  From `split` on (the tag block of syzygies) it is
position over term, and every term below `split` is larger.  A monomial
has no component bits and sits at the same bits in every layout, so
multiplying a term by it is `+`, and the quotient of two terms of one
component is `-`.  A lead l divides a term t of its own component exactly
when (t - l) & mask == 0, mask being the guard and component bits.

No field carries into the next, since every field holds at most the
monomial degree.  normal_form sizes its fields from its input terms: a
reduction step only makes terms smaller than the one it removes, so never
of higher monomial degree.  buchberger also admits the degree cap minus
the smallest twist, since the cap bounds the twisted degree of every
S-pair it processes.  Packing a term that does not fit raises
OverflowError.

Determinism: S-pairs are processed in (degree, index, index) order, the
output basis is reduced, monic, inter-reduced and canonically sorted, so
identical inputs give identical outputs.
"""

from __future__ import annotations

import heapq
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .poly import Expo, PolyRing, Polynomial, grevlex_key, mono_deg, mono_mul

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


# ---------- packed terms ----------

class _Packer:
    """Packs the terms of one engine call into ints (layout in the module
    docstring): nvars variables, components 0..ncomps-1, monomial degrees
    up to maxdeg, and position over term from component split on."""

    __slots__ = ("mask", "_mults", "_limit", "_comp_bits", "_comp_of", "_comp_mask",
                 "_shifts", "_expo_mask")

    def __init__(self, nvars: int, ncomps: int, maxdeg: int, split: int | None = None):
        w = maxdeg.bit_length() or 1  # w > 0 keeps 2^w - 1 a divisor below
        slot = (ncomps - 1).bit_length()
        low = nvars * (w + 1)
        weights = low + slot
        up = weights + nvars * w
        block = up + slot
        ones = self._expo_mask = (1 << w) - 1
        self._shifts = range(0, low, w + 1)
        # x^e packs to sum(e_i * mults[i]): e_i in its exponent field and in
        # the weight fields from e_1 + ... + e_i up to deg.
        self._mults = [
            (((1 << up) - (1 << (weights + i * w))) // ones) + (1 << s)
            for i, s in enumerate(self._shifts)
        ]
        # The deg field ends at bit up, so x^e fits exactly when it packs
        # below 2^up.
        self._limit = 1 << up
        split = ncomps if split is None else split
        last = ncomps - 1
        self._comp_bits = [
            (1 << block) + ((last - c) << low) if c < split else (last - c) << up
            for c in range(ncomps)
        ]
        self._comp_of = {bits: c for c, bits in enumerate(self._comp_bits)}
        slots = (1 << slot) - 1
        self._comp_mask = (slots << low) | (slots << up) | (1 << block)
        guards = ((1 << low) - 1) // ((1 << (w + 1)) - 1) << w
        self.mask = self._comp_mask | guards

    def mono(self, e: Iterable[int]) -> int:
        """The packed monomial x^e, with no component bits."""
        m = sum(map(mul, e, self._mults))
        if m >= self._limit:
            raise OverflowError("a monomial is too large for the packed fields")
        return m

    def pack(self, v: ModVec) -> dict:
        mono, bits = self.mono, self._comp_bits
        return {mono(e) + bits[comp]: c for (comp, e), c in v.items()}

    def unpack_term(self, t: int) -> ModTerm:
        ones = self._expo_mask
        return self._comp_of[t & self._comp_mask], tuple([(t >> s) & ones for s in self._shifts])

    def unpack(self, v: dict) -> ModVec:
        unpack_term = self.unpack_term
        return {unpack_term(t): c for t, c in v.items()}


def _fitting_packer(vecs: Sequence[ModVec]) -> _Packer:
    """A term-over-position packer for the terms of vecs (not all zero)."""
    terms = [t for v in vecs for t in v]
    return _Packer(
        len(terms[0][1]),
        1 + max(map(itemgetter(0), terms)),
        max(map(sum, map(itemgetter(1), terms))),
    )


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


def leading_terms(vecs: Sequence[ModVec]) -> list[ModTerm]:
    """The largest term of each nonzero vector, term over position."""
    if not vecs:
        return []
    packer = _fitting_packer(vecs)
    return [packer.unpack_term(max(packer.pack(v))) for v in vecs]


# ---------- division ----------

def _add_multiple(out: dict, a: dict, m: int, c, field) -> None:
    """out += c * x^m * a on packed vectors, in place; terms that cancel
    are removed."""
    add, mul_, zero = field.add, field.mul, field.zero
    for t, v in a.items():
        t += m
        s = add(out.get(t, zero), mul_(c, v))
        if s == zero:
            out.pop(t, None)
        else:
            out[t] = s


def _reduce(work: dict, basis: Sequence[dict], leads: Sequence[int], field, mask: int) -> dict:
    """Fully reduced remainder of the packed vector work (consumed) modulo
    the packed basis with the given leads; each step reduces by the first
    applicable element in list order."""
    rem = {}
    while work:
        t = max(work)
        for g, lead in zip(basis, leads):
            if not (t - lead) & mask:
                break
        else:
            rem[t] = work.pop(t)
            continue
        _add_multiple(work, g, t - lead, field.neg(field.div(work[t], g[lead])), field)
    return rem


def normal_form(f: ModVec, basis: Sequence[ModVec], field) -> ModVec:
    """Fully reduced remainder of f modulo basis (tail reduction included),
    term over position.

    Each step reduces by the first applicable element in list order; the
    remainder does not depend on that order when basis is a Groebner basis.
    """
    if not f:
        return {}
    basis = [g for g in basis if g]
    packer = _fitting_packer([f, *basis])
    packed = [packer.pack(g) for g in basis]
    rem = _reduce(packer.pack(f), packed, [max(g) for g in packed], field, packer.mask)
    return packer.unpack(rem)


# ---------- Buchberger ----------

def buchberger(
    gens: Sequence[ModVec],
    twists: Sequence[int],
    field,
    degree_cap: int | None = None,
    allow_inhomogeneous: bool = False,
    split: int | None = None,
) -> list[ModVec]:
    """Reduced Groebner basis of the submodule generated by gens, in the
    free module with one twist per component.

    The order is term over position, except that the components from split
    on, if given, come position over term below all the others.

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
    gens = [g for g in gens if g]
    if not gens:
        return []
    # Every processed S-pair has twisted degree at most the cap, so its
    # terms have monomial degree at most the cap minus the smallest twist.
    nvars = len(next(iter(gens[0]))[1])
    maxdeg = max(degree_cap - min(twists), *(sum(e) for g in gens for _, e in g))
    packer = _Packer(nvars, len(twists), maxdeg, split)
    mask = packer.mask

    # The basis is kept monic; leads[k] is the packed leading term of
    # basis[k], and comps[k], expos[k] its component and exponent.
    basis: list[dict] = []
    leads: list[int] = []
    comps: list[int] = []
    expos: list[Expo] = []
    heap: list[tuple[int, int, int]] = []

    def add(v: dict) -> None:
        lead = max(v)
        comp, e = packer.unpack_term(lead)
        new = len(basis)
        basis.append(vec_scale(v, field.inv(v[lead]), field))
        leads.append(lead)
        comps.append(comp)
        expos.append(e)
        for k in range(new):
            if comps[k] == comp:
                heapq.heappush(heap, (sum(map(max, expos[k], e)) + twists[comp], k, new))

    for g in gens:
        add(packer.pack(g))

    neg_one = field.neg(field.one)
    while heap:
        deg, i, j = heapq.heappop(heap)
        if deg > degree_cap:
            raise DegreeCapExceeded(degree_cap, deg)
        ei, ej = expos[i], expos[j]
        # Product criterion is only valid in the rank-1 (ideal) case: the
        # leads are coprime when their lcm is their product.
        if len(twists) == 1 and deg - twists[0] == sum(ei) + sum(ej):
            continue
        # S-vector of the monic basis[i], basis[j]: their leads cancel.
        lcm = packer.mono(map(max, ei, ej))
        s: dict = {}
        _add_multiple(s, basis[i], lcm - packer.mono(ei), field.one, field)
        _add_multiple(s, basis[j], lcm - packer.mono(ej), neg_one, field)
        r = _reduce(s, basis, leads, field, mask)
        if r:
            add(r)
    return [packer.unpack(g) for g in interreduce(basis, field, mask)]


def interreduce(basis: Sequence[dict], field, mask: int) -> list[dict]:
    """Minimalize leads, tail-reduce, monicize, sort canonically; on packed
    vectors with the packer's divisibility mask."""
    nonzero = sorted(((max(g), g) for g in basis if g), key=itemgetter(0))
    kept: list[dict] = []
    kept_leads: list[int] = []
    for lead, g in nonzero:
        if any(not (lead - other) & mask for other in kept_leads):
            continue
        kept.append(g)
        kept_leads.append(lead)
    reduced = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        others_leads = kept_leads[:idx] + kept_leads[idx + 1:]
        r = _reduce(dict(g), others, others_leads, field, mask) if others else dict(g)
        if r:
            # No other lead divides g's lead, so r keeps it.
            reduced.append(vec_scale(r, field.inv(r[kept_leads[idx]]), field))
    reduced.sort(key=lambda g: sorted(g, reverse=True), reverse=True)
    return reduced


# ---------- syzygies ----------

def syzygies(columns: Sequence[ModVec], twists: Sequence[int], ring: PolyRing) -> list[ModVec]:
    """Generators of the syzygy module of the columns, which lie in the
    free module F with the given twists.

    They are read off one Groebner basis of {(col_j, e_j)} in F + S^s with
    F eliminated first: an element with no F-part is a syzygy.  Those come
    in buchberger's output order, then the unit vector of each zero column.
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
    basis = buchberger(tagged, tuple(twists) + tuple(col_degs), field, split=rank)
    syz = [
        {(comp - rank, e): c for (comp, e), c in g.items()}
        for g in basis
        if min(map(itemgetter(0), g)) >= rank
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
