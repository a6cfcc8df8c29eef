"""Groebner bases for submodules of graded free modules.

All computation happens over the ambient polynomial ring S; quotient-ring
submodules are handled by the callers adjoining J-multiples of the basis
vectors.  The engine takes and returns ModVecs (see poly.py), the
package's one element type, of a free module with an integer twist per
component; a ring element is the rank-1 case, with the single twist 0.

Packed terms.  Inside one call of buchberger, normal_forms or syzygies,
every term is one int whose integer order is the module term order, built
by a _Packer sized for that call.  With n variables and fields w bits wide
(2^w exceeds the largest monomial degree the call can reach), from the top
bit down:

    block bit          set for the components before `split` (all by default)
    n weight fields    deg, e_1 + ... + e_(n-1), ..., e_1 (w bits each)
    component slot     C - comp
    n exponent fields  e_n, ..., e_1 (w bits and a guard bit each)

where C is the last component.  The weight fields compare
lexicographically exactly as grevlex.  The order is term over position:
the monomial first, the lower component wins ties.  With `split` (the tag
block of syzygies) it is an elimination order: every term of a component
below `split` is larger than every term from `split` on, and within each
block the order is term over position.  A monomial has no component bits
and sits at the same bits in every layout, so multiplying a term by it is
`+`, and the quotient of two terms of one component is `-`.  A lead l
divides a term t of its own component exactly when (t - l) & mask == 0,
mask being the guard and component bits.

No field carries into the next, since every field holds at most the
monomial degree.  normal_forms sizes its fields from its input terms: a
reduction step only makes terms smaller than the one it removes, so never
of higher monomial degree.  buchberger also admits the degree cap minus
the smallest twist, since the cap bounds the twisted degree of every
S-pair it processes.  Packing a term that does not fit raises
OverflowError.

Pairs.  buchberger forms S-pairs within one component only, and prunes
them as each element is added with the criteria of Gebauer and Moller
(J. Symb. Comp. 6, 1988):
    M  a new pair goes when another new pair's lcm strictly divides its lcm;
    F  of the new pairs with one lcm, one stays, and none if a pair among
       them has coprime leads (the product criterion, valid in rank 1);
    B  a queued pair (i, j) goes when the new lead divides its lcm and that
       lcm is neither lcm(i, new) nor lcm(j, new);
and an element whose lead the new lead divides gets no further pairs.
The criteria work on bare terms: packed terms without their weight fields,
so that the lcm of two leads fits whatever its degree.  Divisibility is
the mask test; the lcm, its degree and coprimality take a few int
operations each.  A removed pair is never processed, so it never trips the
degree cap.  buchberger(known=B) extends a Groebner basis B and forms no
pair within it: a module's basis starts from J's reduced basis times each
of its basis vectors.  Each generator enters at its own degree, after the
S-pairs up to it, and is kept only if it does not reduce to zero: so, like
Singular's mstd, buchberger returns a minimal generating set with the basis.
Division looks up reducers by the component bits of the term: only a lead
of the term's own component can divide it.

Degree cap.  buchberger processes no S-pair above its degree_cap, which
every caller passes from its PolyRing: the cap belongs to the job's ring.

Determinism: S-pairs are processed in (degree, index, index) order, the
output basis is reduced, monic, inter-reduced and sorted by descending
lead, so identical inputs give identical outputs.  Each output vector
keeps its terms in descending order, so its first key is its leading term.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .poly import DEFAULT_DEGREE_CAP, ModTerm, ModVec, PolyRing, vec_degree, vec_offset, vec_scale


class InhomogeneousError(ValueError):
    pass


class DegreeCapExceeded(RuntimeError):
    """Raised when Buchberger would process an S-pair above the degree cap.

    A pair that the pair criteria remove is never processed, so it never
    trips the cap."""

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
    up to maxdeg, and the components before split in the upper block."""

    __slots__ = ("mask", "comp_mask", "_mults", "_limit", "_comp_bits", "_comp_of",
                 "_shifts", "_w", "_expo_mask", "_expo_bits", "_guards", "_units", "_bare",
                 "_deg_shift")

    def __init__(self, nvars: int, ncomps: int, maxdeg: int, split: int | None = None):
        w = maxdeg.bit_length() or 1  # w > 0 keeps 2^w - 1 a divisor below
        slot = (ncomps - 1).bit_length()
        low = nvars * (w + 1)
        weights = low + slot
        block = weights + nvars * w
        self._w = w
        ones = self._expo_mask = (1 << w) - 1
        self._shifts = range(0, low, w + 1)
        # x^e packs to sum(e_i * mults[i]): e_i in its exponent field and in
        # the weight fields from e_1 + ... + e_i up to deg.
        self._mults = [
            (((1 << block) - (1 << (weights + i * w))) // ones) + (1 << s)
            for i, s in enumerate(self._shifts)
        ]
        # The deg field ends at the block bit, so x^e fits exactly when it
        # packs below it.
        self._limit = 1 << block
        split = ncomps if split is None else split
        last = ncomps - 1
        self._comp_bits = [((c < split) << block) + ((last - c) << low) for c in range(ncomps)]
        self._comp_of = {bits: c for c, bits in enumerate(self._comp_bits)}
        self.comp_mask = (((1 << slot) - 1) << low) | (1 << block)
        units = self._units = ((1 << low) - 1) // ((1 << (w + 1)) - 1)
        self._guards = units << w
        self._expo_bits = units * ones
        self.mask = self.comp_mask | self._guards
        self._bare = self.comp_mask | self._expo_bits
        # In a * units, the top exponent field sums all those of a.
        self._deg_shift = low - w - 1

    def mono(self, e: Iterable[int]) -> int:
        """The packed monomial x^e, with no component bits."""
        m = sum(map(mul, e, self._mults))
        if m >= self._limit:
            raise OverflowError("a monomial is too large for the packed fields")
        return m

    def pack(self, v: ModVec) -> dict:
        mono, bits = self.mono, self._comp_bits
        return {mono(e) + bits[comp]: c for (comp, e), c in v.items()}

    def component(self, t: int) -> int:
        return self._comp_of[t & self.comp_mask]

    def unpack_term(self, t: int) -> ModTerm:
        ones = self._expo_mask
        return self.component(t), tuple([(t >> s) & ones for s in self._shifts])

    def bare(self, t: int) -> int:
        """t without its weight fields.  Bare terms divide, compare equal and
        share variables exactly as the terms do, and cannot overflow."""
        return t & self._bare

    def lcm(self, a: int, b: int) -> int:
        """The bare lcm of the bare terms a and b of one component: in each
        field the larger exponent, as told by the guard bits of a - b."""
        guards = self._guards
        ge = ((a | guards) - b) & guards  # the guard of each field where a >= b
        return b ^ ((a ^ b) & (ge - (ge >> self._w)))

    def degree(self, a: int) -> int:
        """The monomial degree of the bare term a, if below 2^(w+1): it holds
        the lcm of any two packed terms."""
        return (a * self._units >> self._deg_shift) & ((self._expo_mask << 1) | 1)

    def coprime(self, a: int, b: int) -> bool:
        """True when the monomials of the (bare) terms a and b share no
        variable.  Adding 2^w - 1 to a w-bit exponent field sets its guard
        bit exactly when the exponent is nonzero."""
        ones = self._expo_bits
        return not ((a & ones) + ones) & ((b & ones) + ones) & self._guards

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


def _reduce(work: dict, reducers: dict, field, packer: _Packer) -> dict:
    """Fully reduced remainder of the packed vector work (consumed) modulo
    reducers, which maps the component bits of a lead to the (vector, lead)
    pairs of that component in basis order; each step reduces by the first
    applicable element in basis order.  Only a lead of a term's own
    component can divide it."""
    mask, comp_mask = packer.mask, packer.comp_mask
    rem = {}
    while work:
        t = max(work)
        for g, lead in reducers.get(t & comp_mask, ()):
            if not (t - lead) & mask:
                break
        else:
            rem[t] = work.pop(t)
            continue
        _add_multiple(work, g, t - lead, field.neg(field.div(work[t], g[lead])), field)
    return rem


def normal_forms(vecs: Sequence[ModVec], basis: Sequence[ModVec], field) -> list[ModVec]:
    """The fully reduced remainder of each vector modulo basis (tail
    reduction included), term over position, with one packer for the batch.

    Each step reduces by the first applicable element in list order; the
    remainder does not depend on that order when basis is a Groebner basis.
    """
    basis = [g for g in basis if g]
    if not any(vecs):
        return [{} for _ in vecs]
    packer = _fitting_packer([*vecs, *basis])
    reducers: dict = {}
    for g in map(packer.pack, basis):
        lead = max(g)
        reducers.setdefault(lead & packer.comp_mask, []).append((g, lead))
    return [packer.unpack(_reduce(packer.pack(f), reducers, field, packer)) for f in vecs]


# ---------- Buchberger ----------

def buchberger(
    gens: Sequence[ModVec],
    twists: Sequence[int],
    field,
    degree_cap: int = DEFAULT_DEGREE_CAP,
    allow_inhomogeneous: bool = False,
    split: int | None = None,
    known: Sequence[ModVec] = (),
) -> tuple[list[ModVec], list[ModVec]]:
    """The reduced Groebner basis of the submodule generated by known and
    gens, in the free module with one twist per component, and the
    generators kept on the way.

    known must be a Groebner basis (a previous output, say): the S-pairs
    among its elements are never formed, and only pairs with an element
    of gens or a remainder are queued.  Each generator enters at its
    twisted degree (its largest, if inhomogeneous), in the order given
    within a degree, once every S-pair of that degree and below is
    processed.  It is reduced by the basis so far: one that reduces to
    zero is dropped and forms no pair; otherwise it is kept and its
    remainder joins the basis, whose lead no lead divides, so its pairs
    lie above its degree.  On homogeneous input the basis is complete up
    to that degree, so the kept generators are the greedy minimal
    generating set modulo known.

    The order is term over position, except that the components from split
    on, if given, form a block below all the others: term over position
    within it, and every one of its terms below every term outside it.

    Raises InhomogeneousError unless every generator is homogeneous with
    respect to the twists (or allow_inhomogeneous is set, as needed by the
    radical-membership certificate), and DegreeCapExceeded if an S-pair
    above the cap would have to be processed.
    """
    if not allow_inhomogeneous:
        for g in gens:
            if g and vec_degree(g, twists) is None:
                raise InhomogeneousError("inhomogeneous generator")
    gens = [g for g in gens if g]
    known = [g for g in known if g]
    if not gens and not known:
        return [], []
    # Every processed S-pair has twisted degree at most the cap, so its
    # terms have monomial degree at most the cap minus the smallest twist.
    vecs = gens + known
    nvars = len(next(iter(vecs[0]))[1])
    maxdeg = max(degree_cap - min(twists), *(sum(e) for g in vecs for _, e in g))
    packer = _Packer(nvars, len(twists), maxdeg, split)
    mask, comp_mask, coprime = packer.mask, packer.comp_mask, packer.coprime
    rank_one = len(twists) == 1

    # The basis is kept monic; leads[k] is the packed leading term of
    # basis[k] and bares[k] its bare form.  Per component bits: reducers
    # holds the (vector, lead) pairs in basis order, active the elements
    # that still get new pairs, and queued the bare lcm of each pair in the
    # heap that no criterion has removed.
    basis: list[dict] = []
    leads: list[int] = []
    bares: list[int] = []
    reducers: dict[int, list] = {}
    active: dict[int, list[int]] = {}
    queued: dict[int, dict] = {}
    heap: list[tuple[int, int, int]] = []

    def add(v: dict, pairs: bool = True) -> None:
        """Append v to the basis and, if pairs, queue the pairs (k, new)
        with the active k of its component that survive the Gebauer-Moller
        criteria."""
        lead = max(v)
        bits = lead & comp_mask
        x = packer.bare(lead)
        new = len(basis)
        g = vec_scale(v, field.inv(v[lead]), field)
        basis.append(g)
        leads.append(lead)
        bares.append(x)
        reducers.setdefault(bits, []).append((g, lead))
        old = active.setdefault(bits, [])
        if pairs:
            queue = queued.setdefault(bits, {})
            # B: drop a queued (i, j) when the new lead divides its lcm L
            # and L is neither lcm(i, new) nor lcm(j, new).  As both divide
            # L, L = lcm(i, new) exactly when L / lead_i and L / lead are
            # coprime.
            for (i, j), lcm in list(queue.items()):
                if (
                    not (lcm - x) & mask
                    and not coprime(lcm - bares[i], lcm - x)
                    and not coprime(lcm - bares[j], lcm - x)
                ):
                    del queue[i, j]
            twist = twists[packer.component(lead)]
            candidates = []
            for k in old:
                lcm = packer.lcm(bares[k], x)
                candidates.append((packer.degree(lcm) + twist, lcm, k))
            # A strict divisor of an lcm has a smaller degree, so in this
            # order each minimal lcm comes before every lcm it divides.
            candidates.sort()
            minimal: list[int] = []
            for (deg, lcm), group in groupby(candidates, key=itemgetter(0, 1)):
                # M: the lcm of another new pair strictly divides this one.
                if any(not (lcm - m) & mask for m in minimal):
                    continue
                minimal.append(lcm)
                # F: one pair per lcm, and none if a pair in the group has
                # coprime leads (the product criterion, valid in rank 1).
                ks = [k for _, _, k in group]
                if rank_one and any(coprime(bares[k], x) for k in ks):
                    continue
                queue[ks[0], new] = lcm
                heapq.heappush(heap, (deg, ks[0], new))
        # An element whose lead the new lead divides gets no further pairs.
        old[:] = [k for k in old if (bares[k] - x) & mask]
        old.append(new)

    for g in known:
        add(packer.pack(g), pairs=False)
    # The generators wait by twisted degree, the next to enter last.
    waiting = sorted(
        ((max(sum(e) + twists[c] for c, e in g), g) for g in gens), key=itemgetter(0)
    )[::-1]
    kept: list[ModVec] = []

    neg_one = field.neg(field.one)
    while heap or waiting:
        if waiting and (not heap or heap[0][0] > waiting[-1][0]):
            g = waiting.pop()[1]
            r = _reduce(packer.pack(g), reducers, field, packer)
            if r:
                kept.append(g)
                add(r)
            continue
        deg, i, j = heapq.heappop(heap)
        lcm = queued[leads[i] & comp_mask].pop((i, j), None)
        if lcm is None:
            continue  # removed by criterion B
        if deg > degree_cap:
            raise DegreeCapExceeded(degree_cap, deg)
        # Within the cap, the lcm fits the packed fields.
        lcm = packer.mono(packer.unpack_term(lcm)[1]) + (lcm & comp_mask)
        # S-vector of the monic basis[i], basis[j]: their leads cancel.
        s: dict = {}
        _add_multiple(s, basis[i], lcm - leads[i], field.one, field)
        _add_multiple(s, basis[j], lcm - leads[j], neg_one, field)
        r = _reduce(s, reducers, field, packer)
        if r:
            add(r)
    return [packer.unpack(g) for g in interreduce(basis, field, packer)], kept


def interreduce(basis: Sequence[dict], field, packer: _Packer) -> list[dict]:
    """Minimalize leads, tail-reduce, monicize, sort canonically; on packed
    vectors of a Groebner basis.

    In ascending lead order, each element is reduced by the elements
    already reduced: a lead divides only terms at or above it, so no later
    element applies.  Each output keeps its terms in descending order."""
    mask, comp_mask = packer.mask, packer.comp_mask
    reducers: dict[int, list] = {}
    for lead, g in sorted(((max(g), g) for g in basis if g), key=itemgetter(0)):
        same = reducers.setdefault(lead & comp_mask, [])
        if any(not (lead - other) & mask for _, other in same):
            continue
        # No other lead divides g's lead, so the remainder keeps it.
        r = _reduce(dict(g), reducers, field, packer)
        same.append((vec_scale(r, field.inv(r[lead]), field), lead))
    reduced = [g for same in reducers.values() for g, _ in same]
    # The leads are distinct, and each output's first key is its lead.
    reduced.sort(key=lambda g: next(iter(g)), reverse=True)
    return reduced


# ---------- syzygies ----------

def syzygies(columns: Sequence[ModVec], twists: Sequence[int], ring: PolyRing) -> list[ModVec]:
    """Generators of the syzygy module of the columns, which lie in the
    free module F with the given twists.

    They are read off one Groebner basis of {(col_j, e_j)} in F + S^s, in
    the elimination order whose block bit puts every term of F above every
    tag term e_j, term over position within each block: an element with no
    F-part is a syzygy.  Those come in buchberger's output order, then the
    unit vector of each zero column.
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
    basis, _ = buchberger(tagged, (*twists, *col_degs), field, ring.degree_cap, split=rank)
    syz = [vec_offset(g, -rank) for g in basis if min(map(itemgetter(0), g)) >= rank]
    return syz + [{(j, zero_expo): field.one} for j, col in enumerate(columns) if not col]
