"""Representable commutative DG-rings: rings, Koszul DG-rings over rings or
DG-rings, trivial extensions, and tensor products over a ring base.

A DGRingRep carries its degree-zero ring Q = S/J, the underlying bounded
non-positive complex of Q-modules, a presentation of H^0 as a quotient
ring, its kind ("ring", "koszul", "trivial-extension" or "tensor") and
its Koszul lifts: the representatives in Q of every Koszul element below
it, outermost last, or None when a trivial extension lies underneath.
The DG multiplication is never stored as tables: every invariant in scope
(homology, depth, amplitude, dimension, duality data) factors through the
underlying complex and the Q-action.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import Complex, koszul_complex, tensor_complexes
from .hilbert import table_json
from .modules import FPModule
from .parse import parse_poly
from .poly import Polynomial, RingMismatchError
from .rings import QuotientRing, substitute

# Bound on the total rank (the number of generators over all terms) of a
# Koszul or tensor complex, checked before any of its terms is built: K(A;
# a_1..a_n) has rank(A) * 2^n generators and L (x) R has rank(L) * rank(R).
# Homology is read from Hilbert series, one Groebner basis per differential.
# Measured one process at a time on a 2-vCPU Xeon, at rank 512, 1024 and
# 2048: a koszul task on n copies of x over k[x,y] took 0.1, 0.4-0.5 and
# 0.9-1.3 s, and one on all variables of k[x0..x(n-1)] 0.15, 0.3-0.4 and
# 1.1 s.  Relations cost more: on all variables of k[x0..x(n-1)]/(x0x1 -
# x2x3, x4x5 - x6x7) a koszul task took 0.8-0.9 s at rank 512 (n = 9) and
# 2.3-2.8 s at 1024.  An invariants task (depth at the irrelevant ideal and
# a regular-sequence witness, which still builds homology modules) at rank
# 512 took 0.5 s on k[x0..x8], 1.1-1.2 s with the first quadric and
# 1.8-2.0 s with both; on both quadrics in ten variables (rank 1024) it
# took 4.3-4.7 s.  The suite and the benchmark build at most rank 64.
MAX_COMPLEX_RANK = 512


class ComplexSizeError(ValueError):
    pass


def _check_rank(rank: int, what: str) -> None:
    if rank > MAX_COMPLEX_RANK:
        raise ComplexSizeError(
            f"{what} would have {rank} generators, above the bound {MAX_COMPLEX_RANK}"
        )


def _total_rank(C: Complex) -> int:
    return sum(t.rank for t in C.terms.values())


class ElementOfH0:
    """A class in H^0 of a DG-ring, held by an explicit representative in Q.

    The representative is kept exactly as given (not auto-reduced): lifts
    that differ by the defining ideal build syntactically different Koszul
    complexes whose homology must agree.  Zero representatives carry a
    declared degree so the Koszul twist is still defined.
    """

    __slots__ = ("rep", "degree")

    def __init__(self, rep: Polynomial, degree: int | None = None):
        d = rep.homogeneous_degree()
        if d is None:
            if rep.is_zero():
                d = degree if degree is not None else 1
            else:
                raise ValueError(f"representative {rep} is not homogeneous")
        elif degree is not None and degree != d:
            raise ValueError("declared degree disagrees with the representative")
        self.rep = rep
        self.degree = d

    def __eq__(self, other):
        return (
            isinstance(other, ElementOfH0)
            and other.rep == self.rep
            and other.degree == self.degree
        )

    def __hash__(self):
        return hash((self.rep, self.degree))

    def __repr__(self):
        return f"[{self.rep}]"


def _as_element(x, ring: QuotientRing) -> ElementOfH0:
    if isinstance(x, str):
        return ElementOfH0(parse_poly(x, ring.poly_ring))
    if isinstance(x, Polynomial):
        x = ElementOfH0(x)
    elif not isinstance(x, ElementOfH0):
        raise TypeError(f"cannot interpret {x!r} as an element of H^0")
    if x.rep.ring != ring.poly_ring:
        raise RingMismatchError(
            f"element {x.rep} of {x.rep.ring!r} is not in {ring.poly_ring!r}"
        )
    return x


class DGRingRep:
    """A commutative non-positive DG-ring in the representable class."""

    def __init__(
        self,
        base: QuotientRing,
        underlying: Complex,
        h0: QuotientRing,
        kind: str,
        lifts: tuple | None,
    ):
        self.base = base
        self.underlying = underlying
        self.h0 = h0
        self.kind = kind
        self.lifts = lifts
        self._koszul: dict = {}
        self._constant_amplitude: bool | None = None

    # -- cohomology --

    def homology(self, i: int) -> FPModule:
        return self.underlying.homology(i)

    def homology_table(self):
        return self.underlying.homology_table()

    def inf(self):
        return self.underlying.inf()

    def sup(self):
        return self.underlying.sup()

    def amp(self):
        return self.underlying.amp()

    def irrelevant_ideal(self) -> list[ElementOfH0]:
        """The variable classes generating the irrelevant maximal ideal."""
        ring = self.base.poly_ring
        return [ElementOfH0(ring.var(i)) for i in range(ring.nvars)]

    def validate(self) -> None:
        """Structural invariants: complex sanity and H^0(underlying) = h0
        (Hilbert series and annihilator agreement)."""
        self.underlying.validate()
        if self.underlying.hi > 0:
            raise AssertionError("underlying complex must be non-positive")
        h = self.underlying.homology(0)
        if h.hilbert_series() != self.h0.hilbert_series():
            raise AssertionError("H^0 Hilbert series disagrees with h0")
        closure = QuotientRing(
            self.base.poly_ring,
            tuple(h.annihilator()) + self.base.j_gens,
        )
        if closure != self.h0:
            raise AssertionError("H^0 annihilator disagrees with h0")

    def __repr__(self):
        return f"DGRing({self.kind}, base={self.base!r})"


# ---------- constructors ----------

def dg_from_ring(Q: QuotientRing) -> DGRingRep:
    underlying = Complex(Q, {0: FPModule(Q, (0,))}, {})
    return DGRingRep(Q, underlying, Q, "ring", ())


def trivial_extension(Q: QuotientRing, M: FPModule, n: int) -> DGRingRep:
    """The trivial extension Q (semidirect) M[n]: Q in degree 0, M in degree
    -n, zero differential, M squaring to zero."""
    if n < 1:
        raise ValueError("trivial extension shift must be >= 1")
    if M.ring != Q:
        raise ValueError("module must live over the base ring")
    pres = M.minimize()
    terms = {0: FPModule(Q, (0,))}
    if pres.rank > 0:
        terms[-n] = pres
    underlying = Complex(Q, terms, {})
    return DGRingRep(Q, underlying, Q, "trivial-extension", None)


def koszul(A: DGRingRep, elems: Sequence) -> DGRingRep:
    """The Koszul DG-ring K(A; elems) on classes of H^0(A).

    Realized as Tot(underlying(A) (x) K(Q; lifts)); the Koszul factor is
    termwise free over Q, so no further resolution is needed.  An empty
    element list returns A itself.  The result is memoized on A, keyed by
    the representatives and degrees, so every reader of K(A; elems) shares
    one complex and its homology.
    """
    elems = tuple(_as_element(e, A.base) for e in elems)
    if not elems:
        return A
    if elems not in A._koszul:
        _check_rank(_total_rank(A.underlying) * 2 ** len(elems), "the Koszul complex")
        K = koszul_complex(
            A.base, [e.rep for e in elems], degrees=[e.degree for e in elems]
        )
        underlying = tensor_complexes(A.underlying, K)
        h0 = QuotientRing(A.base.poly_ring, A.h0.j_gens + tuple(e.rep for e in elems))
        lifts = None if A.lifts is None else A.lifts + elems
        A._koszul[elems] = DGRingRep(A.base, underlying, h0, "koszul", lifts)
    return A._koszul[elems]


def dg_tensor(L: DGRingRep, R: DGRingRep) -> DGRingRep:
    """Derived tensor product over the common ring base.

    Only supported when both factors live over the same base ring, where
    the Koszul factors are termwise free and the plain tensor computes the
    derived one.
    """
    if L.base != R.base:
        raise ValueError("tensor factors must share the base ring")
    if not (L.underlying.is_termwise_free() or R.underlying.is_termwise_free()):
        raise ValueError("one tensor factor must be termwise free")
    _check_rank(
        _total_rank(L.underlying) * _total_rank(R.underlying), "the tensor product"
    )
    underlying = tensor_complexes(L.underlying, R.underlying)
    h0 = QuotientRing(L.base.poly_ring, L.h0.j_gens + R.h0.j_gens)
    lifts = None if L.lifts is None or R.lifts is None else L.lifts + R.lifts
    return DGRingRep(L.base, underlying, h0, "tensor", lifts)


class RingMap:
    """A graded ring map S/J_A -> S'/J_B given on variables."""

    def __init__(
        self, source: QuotientRing, target: QuotientRing, images: Sequence[Polynomial]
    ):
        if len(images) != source.nvars:
            raise ValueError("one image per source variable required")
        for p in images:
            if not p.is_zero() and p.homogeneous_degree() is None:
                raise ValueError("variable images must be homogeneous")
        self.source = source
        self.target = target
        self.images = tuple(images)

    def apply(self, p: Polynomial) -> Polynomial:
        return substitute(p, self.target.poly_ring, self.images)

    def is_well_defined(self) -> bool:
        return all(self.target.is_zero(self.apply(g)) for g in self.source.j_gens)


def base_change(K: DGRingRep, f: RingMap) -> DGRingRep:
    """Push a Koszul DG-ring over a ring A along a ring map A -> B.

    Returns K(B; images of the classes), the right-hand side of the
    Koszul base-change isomorphism.
    """
    if K.kind != "koszul" or K.lifts is None:
        raise ValueError("base change needs a Koszul DG-ring over a ring")
    if not f.is_well_defined():
        raise ValueError("the map does not send the source ideal into the target")
    mapped = []
    for e in K.lifts:
        img = f.apply(e.rep)
        mapped.append(ElementOfH0(img, degree=e.degree if img.is_zero() else None))
    return koszul(dg_from_ring(f.target), mapped)


def lift_independence_check(
    A: DGRingRep, elems: Sequence, alternates: Sequence
) -> dict:
    """Build the Koszul DG-ring from two lift choices of the same classes
    and compare the homology Hilbert tables degree by degree."""
    elems = [_as_element(e, A.base) for e in elems]
    alternates = [_as_element(e, A.base) for e in alternates]
    if len(elems) != len(alternates):
        raise ValueError("lift lists must have equal length")
    for e, alt in zip(elems, alternates):
        diff = e.rep - alt.rep
        if not A.h0.is_zero(diff):
            raise ValueError(
                f"{alt.rep} is not congruent to {e.rep} modulo the H^0 ideal"
            )
        if e.degree != alt.degree:
            raise ValueError("lifts of one class must share a degree")
    k1 = koszul(A, elems)
    k2 = koszul(A, alternates)
    t1 = k1.homology_table()
    t2 = k2.homology_table()
    return {
        "equal": t1 == t2,
        "table_primary": table_json(t1),
        "table_alternate": table_json(t2),
    }
