"""Bounded complexes of graded modules, their operations, and the
degree-truncation oracle.

Complexes are cohomologically indexed: d^i maps term i to term i+1 and has
internal degree 0.  Terms are FPModules in cokernel form (generators equal
to the ambient basis); differentials are polynomial matrices on the
generators.

Sign conventions, pinned once:
  * the rank-1 Koszul differential sends the degree -1 basis vector for a
    to the element a;
  * Tot uses d = d_h + (-1)^p d_v with p the horizontal degree;
  * the dual of a complex of frees uses (-1)^(i+1) on the transpose;
  * shift(C, j) multiplies differentials by (-1)^j.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from . import groebner as gb
from .hilbert import NEG_INF, POS_INF, HilbertSeries
from .linalg import Echelon
from .modules import FPModule, ModuleMap
from .poly import Polynomial, mono_mul
from .rings import QuotientRing

Matrix = tuple  # tuple of rows; row = tuple of Polynomial


def _zero_matrix(ring, rows: int, cols: int) -> Matrix:
    z = ring.poly_ring.zero
    return tuple(tuple(z for _ in range(cols)) for _ in range(rows))


def _scale_matrix(m: Matrix, c) -> Matrix:
    return tuple(tuple(p.scale(c) for p in row) for row in m)


def _mat_mul(a: Matrix, b: Matrix, ring) -> Matrix:
    z = ring.poly_ring.zero
    rows = len(a)
    mid = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = z
            for k in range(mid):
                if not a[r][k].is_zero() and not b[k][c].is_zero():
                    acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class Complex:
    """Bounded complex of cokernel-form FPModules over a QuotientRing."""

    def __init__(self, ring: QuotientRing, terms: dict, diffs: dict):
        self.ring = ring
        self.terms = {i: t for i, t in terms.items() if len(t.gens) > 0}
        self.diffs = {
            i: tuple(tuple(row) for row in m)
            for i, m in diffs.items()
            if i in self.terms and (i + 1) in self.terms
        }
        self._homology: dict = {}

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
        return FPModule.zero(self.ring)

    def diff(self, i: int) -> Matrix | None:
        return self.diffs.get(i)

    def is_termwise_free(self) -> bool:
        return all(len(t.rels) == 0 for t in self.terms.values())

    def validate(self) -> None:
        """Check d∘d = 0 and well-definedness of every differential."""
        for i, m in self.diffs.items():
            src, tgt = self.terms[i], self.terms[i + 1]
            mp = ModuleMap(src, tgt, m)
            if not mp.is_well_defined():
                raise AssertionError(f"differential at {i} is not well defined")
        for i in self.diffs:
            if (i + 1) in self.diffs:
                comp = _mat_mul(self.diffs[i + 1], self.diffs[i], self.ring)
                tgt = self.terms[i + 2]
                for col in range(len(comp[0]) if comp else 0):
                    coords = gb.column_to_vec(row[col] for row in comp)
                    vec = tgt.element_from_coords(coords)
                    if not tgt.element_is_zero(vec):
                        raise AssertionError(f"d∘d != 0 between {i} and {i+2}")

    # -- homology --

    def homology(self, i: int) -> FPModule:
        """H^i = ker(d^i)/im(d^{i-1}), minimized."""
        if i in self._homology:
            return self._homology[i]
        if i not in self.terms:
            h = FPModule.zero(self.ring)
            self._homology[i] = h
            return h
        M = self.terms[i]
        if i in self.diffs:
            ker = ModuleMap(M, self.terms[i + 1], self.diffs[i]).kernel()
            ker_gens = ker.gens
        else:
            ker_gens = M.gens
        im_gens = []
        if (i - 1) in self.diffs:
            mat = self.diffs[i - 1]
            for j in range(len(self.terms[i - 1].gens)):
                vec = M.element_from_coords(gb.column_to_vec(row[j] for row in mat))
                if vec:
                    im_gens.append(vec)
        sub = FPModule(
            M.ambient, ker_gens, tuple(M.rels) + tuple(im_gens), check=False
        )
        h = sub.minimize()
        self._homology[i] = h
        return h

    def homology_table(self) -> dict[int, HilbertSeries]:
        out = {}
        for i in self.support:
            h = self.homology(i)
            if len(h.gens) > 0:
                out[i] = h.hilbert_series()
        return out

    def inf(self):
        for i in self.support:
            if len(self.homology(i).gens) > 0:
                return i
        return POS_INF

    def sup(self):
        for i in reversed(self.support):
            if len(self.homology(i).gens) > 0:
                return i
        return NEG_INF

    def amp(self):
        lo, hi = self.inf(), self.sup()
        if lo == POS_INF:
            return NEG_INF
        return hi - lo

    # -- operations --

    def shift(self, j: int) -> Complex:
        """shift(C, j)^i = C^{i+j}; H^i(shift) = H^{i+j}(C)."""
        sign = self.ring.field.from_int(-1 if j % 2 else 1)
        terms = {i - j: t for i, t in self.terms.items()}
        diffs = {i - j: _scale_matrix(m, sign) for i, m in self.diffs.items()}
        return Complex(self.ring, terms, diffs)

    def hom_dual(self) -> Complex:
        """Hom(-, Q) of a termwise-free complex: transposed differentials
        with sign (-1)^{i+1}, cohomological degrees and twists negated."""
        if not self.is_termwise_free():
            raise ValueError("hom_dual requires a termwise-free complex")
        terms = {}
        for i, t in self.terms.items():
            terms[-i] = FPModule.free(
                self.ring, tuple(-w for w in t.ambient.twists)
            )
        diffs = {}
        for i, m in self.diffs.items():
            # d^i : C^i -> C^{i+1} dualizes to D^{-i-1} -> D^{-i}; the dual
            # matrix is the transpose (dual rows = C^i gens, cols = C^{i+1}).
            transpose = tuple(
                tuple(m[c][r] for c in range(len(self.terms[i + 1].gens)))
                for r in range(len(self.terms[i].gens))
            )
            # dual degree is -i-1, so (-1)^{(dual degree)+1} = (-1)^i
            sign = self.ring.field.from_int(-1 if i % 2 else 1)
            diffs[-i - 1] = _scale_matrix(transpose, sign)
        return Complex(self.ring, terms, diffs)

    def __repr__(self):
        rng = f"[{self.lo}, {self.hi}]" if self.terms else "[]"
        return f"Complex({rng}, ranks={[len(self.term(i).gens) for i in self.support]})"


def complex_from_module(M: FPModule, degree: int = 0) -> Complex:
    return Complex(M.ring, {degree: M.presentation()}, {})


def direct_sum(modules: Sequence[FPModule], ring: QuotientRing) -> FPModule:
    """Direct sum of cokernel-form modules, blocks in the given order."""
    twists: list[int] = []
    offsets = []
    for m in modules:
        offsets.append(len(twists))
        twists.extend(m.ambient.twists)
    rels = [
        {(off + comp, e): c for (comp, e), c in r.items()}
        for off, m in zip(offsets, modules)
        for r in m.rels
    ]
    return FPModule.cokernel(ring, tuple(twists), rels)


class ChainMap:
    """Degree-0 map of complexes, given termwise on generators."""

    def __init__(self, source: Complex, target: Complex, maps: dict):
        self.source = source
        self.target = target
        self.maps = {i: tuple(tuple(r) for r in m) for i, m in maps.items()}

    def validate(self) -> None:
        for i, m in self.source.diffs.items():
            if i in self.maps or (i + 1) in self.maps:
                f_next = self.maps.get(
                    i + 1,
                    _zero_matrix(
                        self.source.ring,
                        len(self.target.term(i + 1).gens),
                        len(self.source.term(i + 1).gens),
                    ),
                )
                f_here = self.maps.get(
                    i,
                    _zero_matrix(
                        self.source.ring,
                        len(self.target.term(i).gens),
                        len(self.source.term(i).gens),
                    ),
                )
                lhs = _mat_mul(f_next, m, self.source.ring)
                tgt_m = self.target.diffs.get(i)
                if tgt_m is None:
                    rhs = _zero_matrix(self.source.ring, len(lhs), len(lhs[0]) if lhs else 0)
                else:
                    rhs = _mat_mul(tgt_m, f_here, self.source.ring)
                tgt = self.target.term(i + 1)
                cols = len(lhs[0]) if lhs else 0
                for col in range(cols):
                    coords = gb.column_to_vec(
                        lhs[r][col] - rhs[r][col] for r in range(len(lhs))
                    )
                    vec = tgt.element_from_coords(coords)
                    if not tgt.element_is_zero(vec):
                        raise AssertionError(f"chain map square fails at {i}")


def cone(f: ChainMap) -> Complex:
    """Mapping cone: term i = source^{i+1} (+) target^i."""
    src, tgt = f.source, f.target
    ring = tgt.ring
    lo = min([i - 1 for i in src.terms] + list(tgt.terms) + [0])
    hi = max([i - 1 for i in src.terms] + list(tgt.terms) + [0])
    terms = {}
    diffs = {}
    minus_one = ring.field.from_int(-1)
    for i in range(lo, hi + 1):
        a = src.term(i + 1)
        b = tgt.term(i)
        if len(a.gens) + len(b.gens) == 0:
            continue
        terms[i] = direct_sum([a, b], ring)
    for i in range(lo, hi + 1):
        if i not in terms or (i + 1) not in terms:
            continue
        a_src, b_src = src.term(i + 1), tgt.term(i)
        a_tgt, b_tgt = src.term(i + 2), tgt.term(i + 1)
        z = ring.poly_ring.zero
        rows = len(a_tgt.gens) + len(b_tgt.gens)
        cols = len(a_src.gens) + len(b_src.gens)
        mat = [[z] * cols for _ in range(rows)]
        d_a = src.diffs.get(i + 1)
        if d_a is not None:
            for r in range(len(a_tgt.gens)):
                for c in range(len(a_src.gens)):
                    mat[r][c] = d_a[r][c].scale(minus_one)
        fm = f.maps.get(i + 1)
        if fm is not None:
            for r in range(len(b_tgt.gens)):
                for c in range(len(a_src.gens)):
                    mat[len(a_tgt.gens) + r][c] = fm[r][c]
        d_b = tgt.diffs.get(i)
        if d_b is not None:
            for r in range(len(b_tgt.gens)):
                for c in range(len(b_src.gens)):
                    mat[len(a_tgt.gens) + r][len(a_src.gens) + c] = d_b[r][c]
        diffs[i] = tuple(tuple(row) for row in mat)
    return Complex(ring, terms, diffs)


class Bicomplex:
    """Grid of modules with commuting horizontal and vertical differentials."""

    def __init__(self, ring: QuotientRing, grid: dict, d_h: dict, d_v: dict):
        self.ring = ring
        self.grid = {pq: m for pq, m in grid.items() if len(m.gens) > 0}
        self.d_h = {pq: m for pq, m in d_h.items() if pq in self.grid}
        self.d_v = {pq: m for pq, m in d_v.items() if pq in self.grid}

    def validate(self) -> None:
        """Every square commutes; a missing map counts as zero."""
        z = self.ring.poly_ring.zero
        for (p, q), m in self.grid.items():
            tgt = self.grid.get((p + 1, q + 1))
            if tgt is None:
                continue
            a = self._path(self.d_h.get((p, q)), self.d_v.get((p + 1, q)))
            b = self._path(self.d_v.get((p, q)), self.d_h.get((p, q + 1)))
            for col in range(len(m.gens)):
                coords = gb.column_to_vec(
                    (a[r][col] if a else z) - (b[r][col] if b else z)
                    for r in range(len(tgt.gens))
                )
                if not tgt.element_is_zero(tgt.element_from_coords(coords)):
                    raise AssertionError(f"square at {(p, q)} does not commute")

    def _path(self, first, second):
        """second * first, or None (zero) when either map is missing."""
        if first is None or second is None:
            return None
        return _mat_mul(second, first, self.ring)

    def total(self) -> Complex:
        """Tot with d = d_h + (-1)^p d_v."""
        degrees = sorted({p + q for (p, q) in self.grid})
        blocks = {
            i: sorted(pq for pq in self.grid if pq[0] + pq[1] == i)
            for i in degrees
        }
        terms = {
            i: direct_sum([self.grid[pq] for pq in blocks[i]], self.ring)
            for i in degrees
        }
        diffs = {}
        z = self.ring.poly_ring.zero
        for i in degrees:
            if (i + 1) not in blocks:
                continue
            src_blocks = blocks[i]
            tgt_blocks = blocks[i + 1]
            src_off = {}
            off = 0
            for pq in src_blocks:
                src_off[pq] = off
                off += len(self.grid[pq].gens)
            tgt_off = {}
            off = 0
            for pq in tgt_blocks:
                tgt_off[pq] = off
                off += len(self.grid[pq].gens)
            rows = sum(len(self.grid[pq].gens) for pq in tgt_blocks)
            cols = sum(len(self.grid[pq].gens) for pq in src_blocks)
            mat = [[z] * cols for _ in range(rows)]
            for (p, q) in src_blocks:
                h = self.d_h.get((p, q))
                if h is not None and (p + 1, q) in tgt_off:
                    ro, co = tgt_off[(p + 1, q)], src_off[(p, q)]
                    for r in range(len(h)):
                        for c in range(len(h[0])):
                            mat[ro + r][co + c] = h[r][c]
                v = self.d_v.get((p, q))
                if v is not None and (p, q + 1) in tgt_off:
                    sign = self.ring.field.from_int(-1 if p % 2 else 1)
                    ro, co = tgt_off[(p, q + 1)], src_off[(p, q)]
                    for r in range(len(v)):
                        for c in range(len(v[0])):
                            mat[ro + r][co + c] = v[r][c].scale(sign)
            diffs[i] = tuple(tuple(row) for row in mat)
        return Complex(self.ring, terms, diffs)


def tensor_bicomplex(C: Complex, D: Complex) -> Bicomplex:
    """Bicomplex of C (x) D; at least one side must be termwise free.

    Horizontal direction is C.  Block generators are indexed (i, j) with
    the C index outermost.
    """
    ring = C.ring
    if ring != D.ring:
        raise ValueError("tensor factors live over different rings")
    c_free = C.is_termwise_free()
    d_free = D.is_termwise_free()
    if not (c_free or d_free):
        raise ValueError("one tensor factor must be termwise free")
    zero = ring.poly_ring.zero
    grid = {}
    d_h = {}
    d_v = {}
    for p, cp in C.terms.items():
        for q, dq in D.terms.items():
            kc, kd = len(cp.gens), len(dq.gens)
            twists = []
            for i in range(kc):
                for j in range(kd):
                    twists.append(
                        cp.ambient.twists[i] + dq.ambient.twists[j]
                    )
            rels = [
                {(i * kd + j, e): c for (i, e), c in r.items()}
                for j in range(kd)
                for r in cp.rels
            ] + [
                {(i * kd + j, e): c for (j, e), c in r.items()}
                for i in range(kc)
                for r in dq.rels
            ]
            grid[(p, q)] = FPModule.cokernel(ring, tuple(twists), rels)
    for p, q in grid:
        dc = C.diffs.get(p)
        if dc is not None and (p + 1, q) in grid:
            kd = len(D.terms[q].gens)
            rows = len(C.terms[p + 1].gens) * kd
            cols = len(C.terms[p].gens) * kd
            mat = [[zero] * cols for _ in range(rows)]
            for r in range(len(C.terms[p + 1].gens)):
                for c in range(len(C.terms[p].gens)):
                    if dc[r][c].is_zero():
                        continue
                    for j in range(kd):
                        mat[r * kd + j][c * kd + j] = dc[r][c]
            d_h[(p, q)] = tuple(tuple(row) for row in mat)
        dd = D.diffs.get(q)
        if dd is not None and (p, q + 1) in grid:
            kc = len(C.terms[p].gens)
            kd_src = len(D.terms[q].gens)
            kd_tgt = len(D.terms[q + 1].gens)
            rows = kc * kd_tgt
            cols = kc * kd_src
            mat = [[zero] * cols for _ in range(rows)]
            for r in range(kd_tgt):
                for c in range(kd_src):
                    if dd[r][c].is_zero():
                        continue
                    for i in range(kc):
                        mat[i * kd_tgt + r][i * kd_src + c] = dd[r][c]
            d_v[(p, q)] = tuple(tuple(row) for row in mat)
    return Bicomplex(ring, grid, d_h, d_v)


def tensor_complexes(C: Complex, D: Complex) -> Complex:
    """Tot of the tensor bicomplex (C free termwise, or D free termwise)."""
    return tensor_bicomplex(C, D).total()


# ---------- Koszul complexes ----------

def koszul_complex(
    ring: QuotientRing,
    elements: Sequence[Polynomial],
    degrees: Sequence[int] | None = None,
) -> Complex:
    """The Koszul complex on the given homogeneous elements of Q.

    Terms sit in degrees [-n, 0]; the term in degree -k has one generator
    per k-subset of the elements (subsets in lexicographic order), twisted
    by the sum of the element degrees.  d(e_T) = sum over positions l of
    (-1)^(l-1) a_{t_l} e_{T minus t_l}.

    Zero elements need an explicit degree (default 1): the cone of the
    zero map still carries a twist.
    """
    n = len(elements)
    degs = []
    for idx, a in enumerate(elements):
        d = a.homogeneous_degree()
        if d is None:
            if a.is_zero():
                d = degrees[idx] if degrees is not None else 1
            else:
                raise gb.InhomogeneousError(
                    f"Koszul element {a} is not homogeneous"
                )
        degs.append(d)
    field = ring.field
    subsets = {
        k: list(itertools.combinations(range(n), k)) for k in range(n + 1)
    }
    terms = {}
    for k in range(n + 1):
        twists = [sum(degs[i] for i in T) for T in subsets[k]]
        terms[-k] = FPModule.free(ring, tuple(twists))
    diffs = {}
    z = ring.poly_ring.zero
    for k in range(1, n + 1):
        src = subsets[k]
        tgt = subsets[k - 1]
        tgt_index = {T: r for r, T in enumerate(tgt)}
        mat = [[z] * len(src) for _ in range(len(tgt))]
        for c, T in enumerate(src):
            for l, t in enumerate(T):
                rest = tuple(x for x in T if x != t)
                sign = field.from_int(-1 if l % 2 else 1)
                mat[tgt_index[rest]][c] = elements[t].scale(sign)
        diffs[-k] = tuple(tuple(row) for row in mat)
    return Complex(ring, terms, diffs)


def euler_series(K: Complex) -> HilbertSeries:
    """Alternating sum over i of HS(H^i(K))."""
    total = HilbertSeries({}, 0)
    for i in K.support:
        h = K.homology(i)
        hs = h.hilbert_series()
        total = total + (hs if i % 2 == 0 else hs.scale(-1))
    return total


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


def truncation_oracle(C: Complex, d_max: int, d_min: int | None = None) -> dict:
    """Graded homology dimensions by exact linear algebra, Groebner-free.

    For each internal degree t up to d_max, each term's graded piece is the
    span of its ambient monomial basis modulo the relation rows N (the
    monomial multiples of the relation columns), so its dimension is
    |basis| - rank N.  The non-pivot basis vectors of N's echelon span a
    complement of N, so the rank of the induced differential is what their
    images add to the echelon of the next term's N.  Rank-nullity gives
    dim H^i_t.

    Returns {i: {t: dim}} over the complex's support.
    """
    ring = C.ring
    field = ring.field
    add = field.add
    if d_min is None:
        twist_floor = [0]
        for t in C.terms.values():
            twist_floor.extend(t.ambient.twists)
        d_min = min(twist_floor)
    support = C.support
    result = {i: {} for i in support}
    monomial_lists = {}

    def monomials(d):
        if d not in monomial_lists:
            monomial_lists[d] = _monomials_of_degree(ring.nvars, d)
        return monomial_lists[d]

    for t_deg in range(d_min, d_max + 1):
        bases = {}
        echelons = {}
        for i in support:
            term = C.terms[i]
            basis = [
                (j, mono)
                for j, w in enumerate(term.ambient.twists)
                for mono in monomials(t_deg - w)
            ]
            index = {bm: k for k, bm in enumerate(basis)}
            relations = Echelon(field)
            for col in term._relation_columns():
                col_deg = gb.vec_degree(col, term.ambient.twists)
                if col_deg is None:
                    continue
                for mono in monomials(t_deg - col_deg):
                    row = {}
                    for (comp, e), cc in col.items():
                        pos = index[(comp, mono_mul(mono, e))]
                        row[pos] = add(row.get(pos, 0), cc)
                    relations.add(row)
            bases[i] = (basis, index)
            echelons[i] = relations
        dims = {i: len(bases[i][0]) - echelons[i].rank for i in support}
        ranks = {}
        for i in support:
            if i not in C.diffs or (i + 1) not in echelons or not dims[i + 1]:
                continue
            basis_s, _ = bases[i]
            _, index_t = bases[i + 1]
            pivots_s = echelons[i].rows
            image = echelons[i + 1].copy()
            mat = C.diffs[i]
            for pos, (j, mono) in enumerate(basis_s):
                if pos in pivots_s:
                    continue
                img = {}
                for r, mat_row in enumerate(mat):
                    for e, cc in mat_row[j].terms.items():
                        k = index_t[(r, mono_mul(mono, e))]
                        img[k] = add(img.get(k, 0), cc)
                image.add(img)
            ranks[i] = image.rank - echelons[i + 1].rank
        for i in support:
            result[i][t_deg] = dims[i] - ranks.get(i, 0) - ranks.get(i - 1, 0)
    return result


def homology_hilbert_functions(C: Complex, d_max: int, d_min: int | None = None) -> dict:
    """Groebner-path homology dimensions, shaped like the oracle output."""
    if d_min is None:
        twist_floor = [0]
        for t in C.terms.values():
            twist_floor.extend(t.ambient.twists)
        d_min = min(twist_floor)
    out = {}
    for i in C.support:
        hs = C.homology(i).hilbert_series()
        out[i] = {t: hs.coefficient(t) for t in range(d_min, d_max + 1)}
    return out


def minimize_complex(C: Complex) -> Complex:
    """Cancel unit entries in the differentials of a termwise-free complex.

    Entries are first reduced mod J; a unit is a nonzero constant.  The
    result is homotopy equivalent to the input (Gaussian cancellation of a
    contractible summand).
    """
    if not C.is_termwise_free():
        raise ValueError("minimize_complex requires a termwise-free complex")
    ring = C.ring
    field = ring.field
    twists = {i: list(t.ambient.twists) for i, t in C.terms.items()}
    diffs = {
        i: [[ring.nf(p) for p in row] for row in m] for i, m in C.diffs.items()
    }
    while True:
        found = None
        for i in sorted(diffs):
            m = diffs[i]
            for r in range(len(m)):
                for c in range(len(m[0]) if m else 0):
                    p = m[r][c]
                    if not p.is_zero() and p.total_degree() == 0:
                        found = (i, r, c)
                        break
                if found:
                    break
            if found:
                break
        if not found:
            break
        i, r, c = found
        m = diffs[i]
        lam_inv = field.inv(m[r][c].constant_coeff())
        rows = len(m)
        cols = len(m[0])
        new = [
            [
                ring.nf(m[r2][c2] - m[r2][c].scale(lam_inv) * m[r][c2])
                for c2 in range(cols)
                if c2 != c
            ]
            for r2 in range(rows)
            if r2 != r
        ]
        diffs[i] = new
        del twists[i][c]
        del twists[i + 1][r]
        if (i - 1) in diffs:
            diffs[i - 1] = [
                row for r2, row in enumerate(diffs[i - 1]) if r2 != c
            ]
        if (i + 1) in diffs:
            diffs[i + 1] = [
                [row[c2] for c2 in range(len(row)) if c2 != r]
                for row in diffs[i + 1]
            ]
    terms = {
        i: FPModule.free(ring, tuple(ws)) for i, ws in twists.items() if ws
    }
    clean_diffs = {}
    for i, m in diffs.items():
        if i in terms and (i + 1) in terms and m and m[0]:
            clean_diffs[i] = tuple(tuple(row) for row in m)
    return Complex(ring, terms, clean_diffs)
