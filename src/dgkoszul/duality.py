"""Betti numbers, normalized dualizing complexes, duals of Koszul DG-rings,
and Gorenstein checks, all read from the minimal free resolutions over the
ambient polynomial ring that complexes.py computes.

"Dualizing" is by construction (the shifted Hom of a minimal free
resolution over S); the self-Hom axioms are classical facts about that
model and are not re-verified mechanically.  Isomorphism testing between a
dual and a Koszul complex is done at declared comparison levels: Hilbert
series per degree (up to one uniform twist), annihilator equality for
cyclic top homology, and explicit chain isomorphisms where the statement
provides one.
"""

from __future__ import annotations

import itertools

from .complexes import (
    Complex,
    _agree,
    _compose,
    ambient_ring,
    betti_table,
    koszul_complex,
    ring_resolution,
    tensor_complexes,
)
from .dgring import DGRingRep
from .hilbert import table_json
from .rings import QuotientRing


def betti_numbers(res: Complex) -> list[int]:
    return [res.term(-k).rank for k in range(-min(res.terms) + 1)]


# ---------- dualizing complexes ----------

def dualizing_complex(Q: QuotientRing) -> Complex:
    """Normalized dualizing complex of Q: the shifted S-dual of a minimal
    free resolution, with inf = -dim(Q)."""
    if Q.is_trivial():
        raise ValueError("the zero ring has no dualizing complex")
    shifted = ring_resolution(Q).hom_dual().shift(Q.poly_ring.nvars)
    lo = shifted.inf()
    want = -Q.dim()
    if lo != want:
        raise AssertionError(
            f"normalized dualizing complex has inf {lo}, expected {want}"
        )
    return shifted


def dualizing_of_koszul(K: DGRingRep) -> Complex:
    """The dualizing DG-module of a Koszul DG-ring over a ring base,
    computed over S as Tot(K_S(lifts) (x) R)[-n] with R the normalized
    dualizing complex of the base ring."""
    if K.lifts is None or K.kind != "koszul":
        raise ValueError("expected a Koszul DG-ring over a ring")
    KS = koszul_complex(
        ambient_ring(K.base), [e.rep for e in K.lifts], degrees=[e.degree for e in K.lifts]
    )
    R = dualizing_complex(K.base)
    return tensor_complexes(KS, R).shift(-len(K.lifts))


# ---------- Gorenstein ----------

def is_gorenstein_ring(Q: QuotientRing) -> tuple[bool, dict]:
    """Gorenstein = Cohen-Macaulay (resolution length equals codimension)
    of type 1 (last Betti number 1).  The Betti table rides along."""
    if Q.is_trivial():
        raise ValueError("the zero ring has no Gorenstein verdict")
    res = ring_resolution(Q)
    length = -min(res.terms)
    codim = Q.poly_ring.nvars - Q.dim()
    cm = length == codim
    last = res.term(min(res.terms)).rank
    data = {
        "betti": betti_numbers(res),
        "betti_table": {str(k): v for k, v in betti_table(res).items()},
        "resolution_length": length,
        "codim": int(codim),
        "cohen_macaulay": cm,
        "type_one": last == 1,
    }
    return cm and last == 1, data


# ---------- self-duality of Koszul complexes ----------

def _subset_sign(T: tuple, n: int) -> int:
    """Sign of the permutation (T ascending, complement ascending) of 0..n-1."""
    comp = tuple(i for i in range(n) if i not in T)
    seq = T + comp
    inv = sum(
        1
        for a in range(len(seq))
        for b in range(a + 1, len(seq))
        if seq[a] > seq[b]
    )
    return -1 if inv % 2 else 1


def self_duality_check(K: DGRingRep) -> dict:
    """Exhibit and verify the +-1 chain isomorphism hom_dual(K) = K[-n].

    The map sends the dual basis vector of e_T to
    (-1)^((n+1)|T|) * sgn(T, T^c) * e_{T^c}; every square is checked
    column by column as membership in J times the target term.  The
    isomorphism is homogeneous of one uniform internal twist (the total
    degree of the lifts).
    """
    if K.kind not in ("koszul", "ring") or K.lifts is None:
        raise ValueError("expected a Koszul DG-ring over a ring")
    n = len(K.lifts)
    Q = K.base
    field = Q.field
    under = K.underlying
    dual = under.hom_dual()
    target = under.shift(-n)
    subsets = {k: list(itertools.combinations(range(n), k)) for k in range(n + 1)}
    zero_expo = (0,) * Q.nvars
    phi = {}
    for i in range(n + 1):
        tgt_index = {T: r for r, T in enumerate(subsets[n - i])}
        columns = []
        for T in subsets[i]:
            comp = tuple(j for j in range(n) if j not in T)
            sign = _subset_sign(T, n)
            if ((n + 1) * len(T)) % 2:
                sign = -sign
            columns.append({(tgt_index[comp], zero_expo): field.from_int(sign)})
        phi[i] = tuple(columns)
    squares = {
        i: _agree(
            _compose(phi[i + 1], dual.diffs[i], field),
            _compose(target.diffs[i], phi[i], field),
            target.terms[i + 1],
            len(phi[i]),
        )
        for i in range(n)
    }
    total_twist = sum(e.degree for e in K.lifts)
    return {
        "pass": all(squares.values()),
        "n": n,
        "squares": {str(i): v for i, v in squares.items()},
        "uniform_twist": total_twist,
        "iso_entries": "plus-minus-one diagonal on complementary subsets",
    }


# ---------- Gorenstein transfer for Koszul DG-rings ----------

def _table_match_up_to_shift(table_a: dict, table_b: dict):
    """Shift s and uniform twist w with a[i] = t^w * b[i+s] for all i."""
    if not table_a and not table_b:
        return 0, 0
    if not table_a or not table_b:
        return None
    s = min(table_b) - min(table_a)
    if set(i + s for i in table_a) != set(table_b):
        return None
    w = None
    for i, hs in sorted(table_a.items()):
        wi = hs.equal_up_to_twist(table_b[i + s])
        if wi is None:
            return None
        if w is None:
            w = wi
        elif w != wi:
            return None
    return s, (w or 0)


def gorenstein_dg_check(K: DGRingRep) -> dict:
    """Gorenstein verdict for a Koszul DG-ring over a ring base.

    true:   the base ring is Gorenstein and the dualizing DG-module is
            isomorphic to K up to shift at the declared comparison level
            (homology Hilbert tables up to one uniform twist, plus
            annihilator equality of the cyclic top homology).
    false:  the Hilbert comparison fails for every admissible shift (the
            classes lie in the irrelevant ideal, so the converse applies).
    unknown: anything else.
    """
    if K.lifts is None or K.kind != "koszul":
        raise ValueError("expected a Koszul DG-ring over a ring")
    goren_ring, ring_data = is_gorenstein_ring(K.base)
    D = dualizing_of_koszul(K)
    table_k = K.homology_table()
    table_d = D.homology_table()
    match = _table_match_up_to_shift(table_d, table_k)
    level = "hilbert-series"
    ann_equal = None
    if match is not None:
        s, w = match
        top_d = max(table_d) if table_d else 0
        top_k = top_d + s
        hd = D.homology(top_d)
        hk = K.homology(top_k)
        if hd.rank == 1 and hk.rank == 1:
            S_poly = K.base.poly_ring
            closure_k = QuotientRing(
                S_poly, tuple(hk.annihilator()) + K.base.j_gens
            )
            closure_d = QuotientRing(S_poly, tuple(hd.annihilator()))
            ann_equal = closure_k == closure_d
            level = "hilbert-series+annihilator"
    if goren_ring and match is not None and ann_equal in (True, None):
        verdict = "true"
    elif match is None:
        verdict = "false"
    else:
        verdict = "unknown"
    return {
        "verdict": verdict,
        "ring_gorenstein": goren_ring,
        "ring_data": ring_data,
        "tables_match": match is not None,
        "shift": None if match is None else match[0],
        "uniform_twist": None if match is None else match[1],
        "top_annihilators_equal": ann_equal,
        "comparison_level": level,
        "table_koszul": table_json(table_k),
        "table_dual": table_json(table_d),
    }
