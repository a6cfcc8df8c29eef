"""Bounded complexes of graded modules, their operations, minimal free
resolutions over the ambient polynomial ring, and the degree-truncation
oracle.

Complexes are cohomologically indexed: d^i maps term i to term i+1 and has
internal degree 0.  Terms are FPModules, cokernels of the free modules on
their generators; a map is the tuple of its columns: column j of a
differential, or of any other map, is the sparse ModVec image of generator
j of the source over the generators of the target.

Sign conventions, pinned once:
  * the rank-1 Koszul differential sends the degree -1 basis vector for a
    to the element a, and the Koszul complex on several elements is the
    tensor product of these;
  * Tot(C (x) D) uses d = d_C (x) 1 + (-1)^p 1 (x) d_D on C^p (x) D^q; it
    lives in tensor_complexes, the one place that builds a tensor product;
  * the dual of a complex of frees uses (-1)^(i+1) on the transpose;
  * shift(C, j) multiplies differentials by (-1)^j.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import groebner as gb
from .hilbert import NEG_INF, POS_INF, HilbertSeries
from .linalg import Echelon
from .modules import FPModule, kernel, min_gens, modulo, subquotient
from .poly import Polynomial, vec_add_multiple, vec_combination, vec_degree, vec_offset, vec_scale
from .rings import QuotientRing


def _compose(outer, inner, field):
    """The columns of outer∘inner, or None (zero) if either map is missing."""
    if outer is None or inner is None:
        return None
    return tuple(vec_combination(outer, col, field) for col in inner)


def _agree(a, b, target: FPModule, n: int) -> bool:
    """Whether two maps on n source generators (column tuples, None for
    zero) agree modulo the relations of target."""
    field = target.ring.field
    zero_expo = (0,) * target.ring.nvars
    minus_one = field.neg(field.one)
    for j in range(n):
        v = dict(a[j]) if a is not None else {}
        if b is not None:
            vec_add_multiple(v, b[j], zero_expo, minus_one, field)
        if not target.element_is_zero(v):
            return False
    return True


class Complex:
    """Bounded complex of FPModules over a QuotientRing.

    diffs[i] is the tuple of ModVec columns of d^i, one per generator of
    term i, over the generators of term i+1.
    """

    def __init__(self, ring: QuotientRing, terms: dict, diffs: dict):
        self.ring = ring
        self.terms = {i: t for i, t in terms.items() if t.rank > 0}
        self.diffs = {
            i: tuple(m)
            for i, m in diffs.items()
            if i in self.terms and (i + 1) in self.terms
        }
        self._homology: dict = {}
        self._images: dict = {}
        self._series: dict = {}

    # -- structure --

    @property
    def support(self) -> list[int]:
        return sorted(self.terms)

    @property
    def lo(self) -> int:
        return min(self.terms) if self.terms else 0

    @property
    def hi(self) -> int:
        return max(self.terms) if self.terms else 0

    def term(self, i: int) -> FPModule:
        if i in self.terms:
            return self.terms[i]
        return FPModule(self.ring, ())

    def is_termwise_free(self) -> bool:
        return all(len(t.rels) == 0 for t in self.terms.values())

    def validate(self) -> None:
        """Check d∘d = 0 and well-definedness of every differential."""
        field = self.ring.field
        for i, m in self.diffs.items():
            rels = self.terms[i].relation_columns()
            if not _agree(_compose(m, rels, field), None, self.terms[i + 1], len(rels)):
                raise AssertionError(f"differential at {i} is not well defined")
        for i in self.diffs:
            if (i + 1) in self.diffs:
                dd = _compose(self.diffs[i + 1], self.diffs[i], field)
                if not _agree(dd, None, self.terms[i + 2], self.terms[i].rank):
                    raise AssertionError(f"d∘d != 0 between {i} and {i+2}")

    # -- homology --

    def homology(self, i: int) -> FPModule:
        """H^i = ker(d^i)/im(d^{i-1}) as a minimized module (homology_series
        gives its Hilbert series, and whether it is zero, far cheaper)."""
        if i in self._homology:
            return self._homology[i]
        if i not in self.terms:
            h = FPModule(self.ring, ())
            self._homology[i] = h
            return h
        M = self.terms[i]
        if i in self.diffs:
            ker_gens = kernel(self.diffs[i], self.terms[i + 1])
        else:
            ker_gens = [M.basis_vector(j) for j in range(M.rank)]
        h = subquotient(M, ker_gens, self.diffs.get(i - 1, ()))
        self._homology[i] = h
        return h

    def _image_series(self, i: int) -> HilbertSeries:
        """HS(im d^i) = HS(C^{i+1}) - HS(F^{i+1}/(N^{i+1} + d^i F^i))."""
        if i not in self._images:
            tgt = self.terms[i + 1]
            coker = FPModule(tgt.ring, tgt.twists, tgt.rels + self.diffs[i])
            self._images[i] = tgt.hilbert_series() - coker.hilbert_series()
        return self._images[i]

    def homology_series(self, i: int) -> HilbertSeries:
        """HS(H^i) = HS(C^i) - HS(im d^i) - HS(im d^{i-1}), memoized: one Groebner
        basis per differential, no syzygies.  H^i = 0 iff its series is 0."""
        if i not in self._series:
            hs = self.term(i).hilbert_series()
            for j in (i, i - 1):
                if j in self.diffs:
                    hs = hs - self._image_series(j)
            self._series[i] = hs
        return self._series[i]

    def homology_table(self) -> dict[int, HilbertSeries]:
        return {i: hs for i in self.support if not (hs := self.homology_series(i)).is_zero()}

    def inf(self):
        nonzero = (i for i in self.support if not self.homology_series(i).is_zero())
        return next(nonzero, POS_INF)

    def sup(self):
        nonzero = (i for i in reversed(self.support) if not self.homology_series(i).is_zero())
        return next(nonzero, NEG_INF)

    def amp(self):
        lo = self.inf()
        return NEG_INF if lo == POS_INF else self.sup() - lo

    # -- operations --

    def shift(self, j: int) -> Complex:
        """shift(C, j)^i = C^{i+j}; H^i(shift) = H^{i+j}(C)."""
        field = self.ring.field
        sign = field.from_int(-1 if j % 2 else 1)
        terms = {i - j: t for i, t in self.terms.items()}
        diffs = {
            i - j: tuple(vec_scale(col, sign, field) for col in m)
            for i, m in self.diffs.items()
        }
        return Complex(self.ring, terms, diffs)

    def hom_dual(self) -> Complex:
        """Hom(-, Q) of a termwise-free complex: transposed differentials
        with sign (-1)^{i+1}, cohomological degrees and twists negated."""
        if not self.is_termwise_free():
            raise ValueError("hom_dual requires a termwise-free complex")
        field = self.ring.field
        terms = {
            -i: FPModule(self.ring, tuple(-w for w in t.twists))
            for i, t in self.terms.items()
        }
        diffs = {}
        for i, m in self.diffs.items():
            # d^i : C^i -> C^{i+1} dualizes to D^{-i-1} -> D^{-i}: column c
            # of the dual (a generator of C^{i+1}) holds row c of d^i.  The
            # dual degree is -i-1, so (-1)^{(dual degree)+1} = (-1)^i.
            sign = field.from_int(-1 if i % 2 else 1)
            dual = [{} for _ in range(self.terms[i + 1].rank)]
            for r, col in enumerate(m):
                for (c, e), v in col.items():
                    dual[c][(r, e)] = field.mul(sign, v)
            diffs[-i - 1] = tuple(dual)
        return Complex(self.ring, terms, diffs)

    def __repr__(self):
        rng = f"[{self.lo}, {self.hi}]" if self.terms else "[]"
        return f"Complex({rng}, ranks={[self.term(i).rank for i in self.support]})"


def tensor_complexes(C: Complex, D: Complex) -> Complex:
    """Tot(C (x) D); at least one factor must be termwise free.

    The term of total degree i is the direct sum of the blocks C^p (x) D^q
    with p + q = i, in increasing p.  Generator (a, b) of a block, a of C^p
    and b of D^q, is its generator a * rank(D^q) + b; the block's relations
    are those of C^p on each b, then those of D^q on each a.  The
    differential is d = d_C (x) 1 + (-1)^p 1 (x) d_D.  One pass builds the
    terms from the top degree down, so the block offsets of term i + 1 are
    known when the columns of d^i are built.
    """
    ring = C.ring
    if ring != D.ring:
        raise ValueError("tensor factors live over different rings")
    if not (C.is_termwise_free() or D.is_termwise_free()):
        raise ValueError("one tensor factor must be termwise free")
    field = ring.field
    blocks: dict = {}
    for p in sorted(C.terms):
        for q in sorted(D.terms):
            blocks.setdefault(p + q, []).append((p, q))
    offset = {}
    terms = {}
    diffs = {}
    for i in sorted(blocks, reverse=True):
        twists: list[int] = []
        rels = []
        cols = []
        for p, q in blocks[i]:
            cp, dq = C.terms[p], D.terms[q]
            kc, kd = cp.rank, dq.rank
            o = offset[(p, q)] = len(twists)
            twists += [u + w for u in cp.twists for w in dq.twists]
            rels += [
                {(o + a * kd + b, e): c for (a, e), c in r.items()}
                for b in range(kd)
                for r in cp.rels
            ]
            rels += [vec_offset(r, o + a * kd) for a in range(kc) for r in dq.rels]
            dc, dd = C.diffs.get(p), D.diffs.get(q)
            if dd is not None:
                sign = field.from_int(-1 if p % 2 else 1)
                signed = [vec_scale(col, sign, field) for col in dd]
                kd_next = D.terms[q + 1].rank
            for a in range(kc):
                for b in range(kd):
                    col = {}
                    if dc is not None:
                        h = offset[(p + 1, q)] + b
                        col.update({(h + r * kd, e): v for (r, e), v in dc[a].items()})
                    if dd is not None:
                        col.update(vec_offset(signed[b], offset[(p, q + 1)] + a * kd_next))
                    cols.append(col)
        terms[i] = FPModule(ring, twists, rels)
        diffs[i] = tuple(cols)  # Complex drops d^i of the top term
    return Complex(ring, terms, diffs)


# ---------- Koszul complexes ----------

def koszul_complex(
    ring: QuotientRing,
    elements: Sequence[Polynomial],
    degrees: Sequence[int] | None = None,
) -> Complex:
    """The Koszul complex K(a_1) (x) (K(a_2) (x) ... (K(a_n) (x) Q)) on the
    given homogeneous elements of Q, where K(a) is Q(-deg a) -> Q sending
    its generator to a, and Q is the rank-1 free complex in degree 0.

    Terms sit in degrees [-n, 0].  By the block order of tensor_complexes,
    which puts the subsets that hold a_1 first, the term in degree -k has
    one generator per k-subset of the elements, subsets in lexicographic
    order, twisted by the sum of the element degrees, and d(e_T) = sum over
    positions l of (-1)^(l-1) a_{t_l} e_{T minus t_l}.

    Zero elements need an explicit degree (default 1): the cone of the
    zero map still carries a twist.
    """
    degs = []
    for idx, a in enumerate(elements):
        d = a.homogeneous_degree()
        if d is None and not a.is_zero():
            raise gb.InhomogeneousError(f"Koszul element {a} is not homogeneous")
        if d is None:
            d = degrees[idx] if degrees is not None else 1
        degs.append(d)
    unit = FPModule(ring, (0,))
    K = Complex(ring, {0: unit}, {})
    for a, d in reversed(list(zip(elements, degs))):
        rank_one = Complex(ring, {-1: FPModule(ring, (d,)), 0: unit}, {-1: (a.vec,)})
        K = tensor_complexes(rank_one, K)
    return K


def euler_series(K: Complex) -> HilbertSeries:
    """Alternating sum over i of HS(H^i(K)) of the homology modules; read
    from homology_series it telescopes to Σ(-1)^i HS(K^i) and tests nothing."""
    total = HilbertSeries({}, 0)
    for i in K.support:
        hs = K.homology(i).hilbert_series()
        total = total + (hs if i % 2 == 0 else hs.scale(-1))
    return total


# ---------- minimal free resolutions ----------

def ambient_ring(Q: QuotientRing) -> QuotientRing:
    """Q's ambient polynomial ring S as a QuotientRing with zero ideal."""
    return QuotientRing(Q.poly_ring, ())


class ResolutionError(RuntimeError):
    pass


def free_resolution(M: FPModule) -> Complex:
    """Minimal free resolution over S of a module over Q = S/J: iterated
    syzygies with minimal generating sets at every stage (the result is
    minimal, with no unit entries)."""
    S = ambient_ring(M.ring)
    ring = S.poly_ring
    F = FPModule(S, M.twists)
    cols = M.relation_columns()
    terms = {0: F}
    diffs = {}
    k = 0
    while True:
        cols = min_gens(cols, F)
        if not cols:
            break
        k += 1
        if k > ring.nvars + 1:
            raise ResolutionError("resolution exceeded the syzygy bound")
        degs = [vec_degree(c, F.twists) for c in cols]
        diffs[-k] = tuple(cols)
        cols = modulo(cols, (), F.twists, ring)
        F = terms[-k] = FPModule(S, degs)
    resolution = Complex(S, terms, diffs)
    _assert_minimal(resolution)
    return resolution


def ring_resolution(Q: QuotientRing) -> Complex:
    """The minimal free resolution of Q over S, computed once per ring
    object and kept on it for the Betti table, the Gorenstein verdict, the
    dualizing complex and the Koszul homology on a basis of S_1."""
    if Q._resolution is None:
        Q._resolution = free_resolution(FPModule(Q, (0,)))
    return Q._resolution


def _assert_minimal(res: Complex) -> None:
    zero_expo = (0,) * res.ring.nvars
    for m in res.diffs.values():
        if any(e == zero_expo for col in m for _, e in col):
            raise ResolutionError("unit entry in a minimal resolution")


def betti_table(res: Complex) -> dict:
    """{homological step: {internal degree: rank}} of a resolution."""
    out = {}
    for i in sorted(res.terms):
        step = -i
        row: dict[int, int] = {}
        for w in res.terms[i].twists:
            row[w] = row.get(w, 0) + 1
        out[step] = dict(sorted(row.items()))
    return out


# ---------- degree-truncation oracle ----------

def _monomials_of_degree(nvars: int, d: int):
    """All exponent tuples of total degree d, deterministic order."""
    if d < 0:
        return []
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def _degree_floor(C: Complex) -> int:
    """The first internal degree of the oracle tables: the least twist of
    any term, and at most 0."""
    return min([0] + [w for t in C.terms.values() for w in t.twists])


def oracle_basis_size(C: Complex, d_max: int) -> int:
    """An upper bound, known before it starts, on the number of basis
    vectors the truncation oracle builds up to d_max: the monomials of the
    terms' free modules, of which the oracle keeps those outside J.

    A generator of twist w contributes C(t - w + n - 1, n - 1) monomials in
    each degree t; summed over t from the degree floor (which is at most w)
    to d_max, that is C(d_max - w + n, n).
    """
    n = C.ring.nvars
    return sum(
        math.comb(d_max - w + n, n)
        for t in C.terms.values()
        for w in t.twists
        if w <= d_max
    )


def truncation_oracle(C: Complex, d_max: int) -> dict:
    """Graded homology dimensions by exact linear algebra, Groebner-free.

    It works in the coordinates of A_d = S_d/J_d.  For each monomial degree
    d, one echelon of J_d (the monomial multiples of J's generators) leaves
    the monomials outside its pivots as a basis of A_d, and a monomial's
    normal form is its remainder by that echelon.  In internal degree t,
    term i is the sum of A_{t-w_j} over its generators j, modulo the rows
    N of its relations (their monomial multiples, in normal form), so its
    dimension is |basis| - rank N.  The non-pivot basis vectors of N's
    echelon span a complement of N, so the rank of the induced differential
    is what their images add to the echelon of the next term's N.
    Rank-nullity gives dim H^i_t.

    A monomial is one int with a field of bits per variable, wide enough
    for every degree up to d_max minus the degree floor, so a product of
    monomials is their sum.

    Returns {i: {t: dim}} over the complex's support.
    """
    ring = C.ring
    field = ring.field
    one, add, mul = field.one, field.add, field.mul
    support = C.support
    result = {i: {} for i in support}
    floor = _degree_floor(C)
    top = d_max - floor  # the largest monomial degree the oracle meets
    width = max(top, 0).bit_length() + 1
    shifts = [width * k for k in reversed(range(ring.nvars))]
    variables = [1 << s for s in shifts]

    def pack(e):
        return sum(x << s for x, s in zip(e, shifts))

    def pack_column(col):
        """(component, monomial, coeff) triples, or None for a column of
        degree above d_max, which meets no basis monomial."""
        if any(sum(e) > top for _, e in col):
            return None
        return [(comp, pack(e), c) for (comp, e), c in col.items()]

    j_gens = [(g.homogeneous_degree(), pack_column(g.vec)) for g in ring.j_gens]
    relations = {
        i: [(vec_degree(col, t.twists), pack_column(col)) for col in t.rels]
        for i, t in C.terms.items()
    }
    diffs = {i: [pack_column(col) for col in m] for i, m in C.diffs.items()}

    monomial_lists = {}
    standard_lists = {}
    normal = {}  # monomial -> its normal form {position in degree: coeff}

    def monomials(d):
        """The monomials of degree d >= 0, descending (in lex order)."""
        if d not in monomial_lists:
            monomial_lists[d] = (
                sorted({m + v for m in monomials(d - 1) for v in variables}, reverse=True)
                if d else [0]
            )
        return monomial_lists[d]

    def standard(d):
        """Positions of the monomials of degree d that form A_d's basis."""
        if d not in standard_lists:
            monos = monomials(d)
            index = {m: k for k, m in enumerate(monos)}
            j_rows = Echelon(field)
            for g_deg, g in j_gens:
                if g_deg <= d:
                    for m in monomials(d - g_deg):
                        j_rows.add({index[m + e]: c for _, e, c in g})
            for k, m in enumerate(monos):
                normal[m] = j_rows.remainder({k: one})
            standard_lists[d] = [k for k in range(len(monos)) if k not in j_rows.rows]
        return standard_lists[d]

    def row(col, m, offsets):
        """The normal form of the column times the monomial m, in a term
        whose basis in this degree is built (so standard() has filled in
        the normal forms it needs)."""
        out = {}
        for comp, e, c in col:
            off = offsets[comp]
            for k, v in normal[m + e].items():
                out[off + k] = add(out.get(off + k, 0), mul(c, v))
        return out

    for t_deg in range(floor, d_max + 1):
        bases = {}
        offsets = {}
        echelons = {}
        for i in support:
            basis = []
            offsets[i] = []
            off = 0
            for j, w in enumerate(C.terms[i].twists):
                offsets[i].append(off)
                if t_deg >= w:
                    monos = monomials(t_deg - w)
                    basis += [(j, monos[k], off + k) for k in standard(t_deg - w)]
                    off += len(monos)
            rels = Echelon(field)
            for col_deg, col in relations[i]:
                if col_deg <= t_deg:
                    for m in monomials(t_deg - col_deg):
                        rels.add(row(col, m, offsets[i]))
            bases[i] = basis
            echelons[i] = rels
        dims = {i: len(bases[i]) - echelons[i].rank for i in support}
        ranks = {}
        for i in support:
            if i not in C.diffs or (i + 1) not in echelons or not dims[i + 1]:
                continue
            pivots = echelons[i].rows
            image = echelons[i + 1].copy()
            for j, m, pos in bases[i]:
                if pos not in pivots:
                    image.add(row(diffs[i][j], m, offsets[i + 1]))
            ranks[i] = image.rank - echelons[i + 1].rank
        for i in support:
            result[i][t_deg] = dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0)
    return result


def homology_hilbert_functions(C: Complex, d_max: int) -> dict:
    """Groebner-path homology dimensions, shaped like the oracle output."""
    degrees = range(_degree_floor(C), d_max + 1)
    return {i: {t: C.homology_series(i).coefficient(t) for t in degrees} for i in C.support}
