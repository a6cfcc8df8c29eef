"""Representable commutative DG-rings: rings, Koszul DG-rings over rings or
DG-rings, trivial extensions, and tensor products over a ring base.

A DGRingRep carries its degree-zero ring Q = S/J, the underlying bounded
non-positive complex of Q-modules, a presentation of H^0 as a quotient
ring, its kind ("ring", "koszul", "trivial-extension" or "tensor") and
its Koszul lifts: the representatives in Q of every Koszul element below
it, outermost last, or None when a trivial extension lies underneath.
The DG multiplication is never stored as tables: every invariant in scope
(homology, depth, amplitude, dimension, duality data) factors through a
complex of Q-modules and the Q-action.

The underlying complex is built when it is first read.  All homology of
a DG-ring, series and modules (homology, homology_table, inf, sup, amp),
is read from its model, the smallest quasi-isomorphic complex at hand:
on a ring and a basis of S_1, F (x)_S k for the ring's minimal
resolution F; on lifts c otherwise, K(Q/(c'); c'') for their longest
Q-regular prefix c' (regular_prefix, through modules.regular_quotient), as
K(Q; c') resolves Q/(c'); else the underlying complex.  A model's H^i is
H^i(underlying) as a Q-module up to isomorphism, but may live over Q/(c')
or k: a reader that closes its annihilator in S adds the J of the module's
own ring.  The built complex is read only by the truncation oracle and
oracle_basis_size, self_duality_check and validate, the builds of further
Koszul and tensor complexes, is_termwise_free above a trivial extension,
and four cross-checks: composition, base change, Euler characteristic and
the trivial-extension discrepancy.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import Complex, koszul_complex, ring_resolution, tensor_complexes
from .hilbert import table_json
from .linalg import Echelon
from .modules import FPModule, regular_quotient
from .parse import parse_poly
from .poly import Polynomial, RingMismatchError
from .rings import QuotientRing, substitute

# Bound on the total rank (the number of generators over all terms) of a
# Koszul or tensor complex, checked before any of its terms is built: K(A;
# a_1..a_n) has rank(A) * 2^n generators and L (x) R has rank(L) * rank(R).
# Measured one process at a time on a 2-vCPU Xeon at rank 512, oracle off:
# a koszul task on all variables of k[x0..x8] or of k[x0..x8]/(x0x1 - x2x3,
# x4x5 - x6x7) took 0.001 s and built no complex, one on nine copies of x
# over k[x,y] 0.008 s, and an invariants task (depth at the irrelevant
# ideal and a regular-sequence witness, whose stages read their bottom
# homology modules from their models) 0.04-0.05 s on either ring.
# The suite and the benchmark build at most rank 64.
MAX_COMPLEX_RANK = 512


class ComplexSizeError(ValueError):
    pass


def _check_rank(rank: int, what: str) -> None:
    if rank > MAX_COMPLEX_RANK:
        raise ComplexSizeError(
            f"{what} would have {rank} generators, above the bound {MAX_COMPLEX_RANK}"
        )


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
    """A commutative non-positive DG-ring in the representable class.

    `build` makes the underlying complex, of total rank `rank`, when it is
    first read.  All homology comes from `model`, if given, a complex
    quasi-isomorphic to the underlying one, and from the underlying
    complex otherwise.
    """

    def __init__(self, base: QuotientRing, build, rank: int, h0: QuotientRing, kind: str,
                 lifts: tuple | None, model: Complex | None = None):
        self.base = base
        self.rank = rank
        self.h0 = h0
        self.kind = kind
        self.lifts = lifts
        self._build = build
        self._underlying: Complex | None = None
        self._model = model
        self._prefix: tuple | None = None
        self._koszul: dict = {}
        self._constant_amplitude: bool | None = None

    @property
    def underlying(self) -> Complex:
        if self._underlying is None:
            self._underlying = self._build()
        return self._underlying

    @property
    def model(self) -> Complex:
        """The complex whose homology is this DG-ring's."""
        return self.underlying if self._model is None else self._model

    def is_termwise_free(self) -> bool:
        """Lifts make it a Koszul complex over Q, free in every term."""
        return self.lifts is not None or self.underlying.is_termwise_free()

    # -- cohomology --

    def homology(self, i: int) -> FPModule:
        return self.model.homology(i)

    def homology_table(self):
        return self.model.homology_table()

    def inf(self):
        return self.model.inf()

    def sup(self):
        return self.model.sup()

    def amp(self):
        return self.model.amp()

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
        closure = QuotientRing(h.ring.poly_ring, tuple(h.annihilator()) + h.ring.j_gens)
        if closure != self.h0:
            raise AssertionError("H^0 annihilator disagrees with h0")

    def __repr__(self):
        return f"DGRing({self.kind}, base={self.base!r})"


# ---------- constructors ----------

def dg_from_ring(Q: QuotientRing) -> DGRingRep:
    return DGRingRep(Q, lambda: Complex(Q, {0: FPModule(Q, (0,))}, {}), 1, Q, "ring", ())


def trivial_extension(Q: QuotientRing, M: FPModule, n: int) -> DGRingRep:
    """The trivial extension Q (semidirect) M[n]: Q in degree 0, M in degree
    -n, zero differential, M squaring to zero."""
    if n < 1:
        raise ValueError("trivial extension shift must be >= 1")
    if M.ring != Q:
        raise ValueError("module must live over the base ring")
    pres = M.minimize()
    terms = {0: FPModule(Q, (0,)), -n: pres}
    return DGRingRep(Q, lambda: Complex(Q, terms, {}), 1 + pres.rank, Q, "trivial-extension", None)


def regular_prefix(ring: QuotientRing, elems: Sequence[ElementOfH0]) -> tuple[QuotientRing, int]:
    """(ring/(e_1..e_k), k) for the longest prefix e_1..e_k of elems that is
    a regular sequence on the ring, so that K(ring; elems) is
    quasi-isomorphic to K(ring/(e_1..e_k); e_k+1..).  The cyclic module
    ring/(e_1..e_i) passes to regular_quotient until an element fails, and
    the ring is built once, from the last module's Groebner basis."""
    M, k = FPModule(ring, (0,)), 0
    for e in elems:
        quotient = regular_quotient(M, e.rep, e.degree)
        if quotient is None:
            break
        M, k = quotient, k + 1
    if not k:
        return ring, 0
    result = QuotientRing(ring.poly_ring, ring.j_gens + tuple(e.rep for e in elems[:k]))
    result._gb = tuple(Polynomial(ring.poly_ring, v) for v in M._reduced_basis())
    return result, k


def _with_model(A: DGRingRep, elems: tuple, build, rank: int, h0_gens: tuple) -> DGRingRep:
    """K(A; elems), which `build` makes, on lifts c = A.lifts + elems (None
    under a trivial extension), with the model K(Q/(c'); c''), c' resuming
    A's regular prefix.  When c'' is empty, Q/(c) is H^0, the only homology."""
    Q = A.base
    if A.lifts is None:
        return DGRingRep(Q, build, rank, QuotientRing(Q.poly_ring, h0_gens), "koszul", None)
    if A._prefix is None:
        A._prefix = regular_prefix(Q, A.lifts)
    ring, k = A._prefix
    if k == len(A.lifts):
        ring, extra = regular_prefix(ring, elems)
        k += extra
    lifts = A.lifts + elems
    rest = lifts[k:]
    model = koszul_complex(ring, [e.rep for e in rest], [e.degree for e in rest]) if k else None
    h0 = QuotientRing(Q.poly_ring, h0_gens) if rest else ring
    K = DGRingRep(Q, build, rank, h0, "koszul", lifts, model)
    K._prefix = ring, k
    return K


def _is_basis_of_linear_forms(Q: QuotientRing, elems: tuple) -> bool:
    """Whether the elements are nvars forms of degree 1 whose coefficient
    rows are independent, that is a basis of S_1."""
    if len(elems) != Q.nvars or any(e.degree != 1 for e in elems):
        return False
    rows = Echelon(Q.field)
    for e in elems:
        rows.add({expo.index(1): c for (_, expo), c in e.rep.vec.items()})
    return rows.rank == Q.nvars


def koszul(A: DGRingRep, elems: Sequence) -> DGRingRep:
    """The Koszul DG-ring K(A; elems) on classes of H^0(A).

    Realized as Tot(underlying(A) (x) K(Q; lifts)), built when first read;
    the Koszul factor is termwise free over Q, so no further resolution is
    needed.  An empty element list returns A itself.  The result is
    memoized on A, keyed by the representatives and degrees, so every
    reader of K(A; elems) shares one complex and its homology, which
    comes from the smallest model (module docstring).
    On a nonzero ring Q = S/J and a basis l of S_1, K(S; l) resolves k, so
    H^{-i}(K(Q; l)) = Tor_i^S(Q, k), whose Hilbert series is the Betti row
    sum_j beta_ij t^j of Q's minimal resolution (balancing of Tor), with no
    Groebner basis of a Koszul differential.
    """
    elems = tuple(_as_element(e, A.base) for e in elems)
    if not elems:
        return A
    if elems not in A._koszul:
        rank = A.rank * 2 ** len(elems)
        _check_rank(rank, "the Koszul complex")
        Q = A.base

        def build():
            K = koszul_complex(Q, [e.rep for e in elems], degrees=[e.degree for e in elems])
            return tensor_complexes(A.underlying, K)

        h0_gens = A.h0.j_gens + tuple(e.rep for e in elems)
        if A.kind == "ring" and _is_basis_of_linear_forms(Q, elems) and not Q.is_trivial():
            # F (x)_S k for Q's minimal resolution F, whose differential is
            # zero; k = S/(l) is H^0 = Q/(l).
            h0 = QuotientRing(Q.poly_ring, h0_gens)
            terms = ring_resolution(Q).terms.items()
            model = Complex(h0, {i: FPModule(h0, t.twists) for i, t in terms}, {})
            K = DGRingRep(Q, build, rank, h0, "koszul", elems, model)
        else:
            K = _with_model(A, elems, build, rank, h0_gens)
        A._koszul[elems] = K
    return A._koszul[elems]


def dg_tensor(L: DGRingRep, R: DGRingRep) -> DGRingRep:
    """Derived tensor product over the common ring base, built when first
    read.

    Only supported when both factors live over the same base ring, where
    the Koszul factors are termwise free and the plain tensor computes the
    derived one.
    """
    if L.base != R.base:
        raise ValueError("tensor factors must share the base ring")
    rank = L.rank * R.rank
    _check_rank(rank, "the tensor product")
    if not (L.is_termwise_free() or R.is_termwise_free()):
        raise ValueError("one tensor factor must be termwise free")
    h0 = QuotientRing(L.base.poly_ring, L.h0.j_gens + R.h0.j_gens)
    lifts = None if L.lifts is None or R.lifts is None else L.lifts + R.lifts
    return DGRingRep(L.base, lambda: tensor_complexes(L.underlying, R.underlying),
                     rank, h0, "tensor", lifts)


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
