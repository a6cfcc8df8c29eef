"""Graded quotient rings Q = S/J.

The ambient polynomial ring S does all Groebner work, under its degree
cap; Q caches the reduced basis of its defining ideal, its Hilbert series,
whose pole order is the Krull dimension, its minimal resolution and its
normalized dualizing complex.
Quotient rings compare equal when their reduced bases agree, so different
generator lists for the same ideal give interchangeable contexts.
"""

from __future__ import annotations

from typing import Sequence

from . import groebner as gb
from .hilbert import HilbertSeries, lead_module_series
from .parse import is_name, parse_poly
from .poly import DEFAULT_DEGREE_CAP, ModVec, PolyRing, Polynomial, RingMismatchError

# A bound on the variable count of a ring read from a job (its own ring and
# a base-change target), checked before any work starts.  It is a plain
# input bound: a Koszul complex on n elements has 2^n basis vectors, and the
# depth at the irrelevant ideal reads the one on all variables, from the
# ring's Betti table (an invariants task on a polynomial ring took 0.03 s
# in 8 variables on a 2-vCPU Xeon), while a Koszul job on x0 in 20
# variables takes milliseconds.
MAX_VARIABLES = 20


class QuotientRing:
    """S/J for a homogeneous ideal J of the polynomial ring S."""

    def __init__(self, poly_ring: PolyRing, j_gens: Sequence[Polynomial] = ()):
        self.poly_ring = poly_ring
        gens = []
        for g in j_gens:
            if g.ring != poly_ring:
                raise RingMismatchError("ideal generator from a different ring")
            if g.is_zero():
                continue
            if g.homogeneous_degree() is None:
                raise gb.InhomogeneousError(f"inhomogeneous ideal generator {g}")
            gens.append(g)
        self.j_gens = tuple(gens)
        self._gb: tuple[Polynomial, ...] | None = None
        self._hilbert: HilbertSeries | None = None
        self._resolution = None
        self._dualizing = None

    # -- basic structure --

    @property
    def field(self):
        return self.poly_ring.field

    @property
    def nvars(self) -> int:
        return self.poly_ring.nvars

    @property
    def variables(self):
        return self.poly_ring.variables

    def groebner(self) -> tuple[Polynomial, ...]:
        """Reduced Groebner basis of J."""
        if self._gb is None:
            vecs = [g.vec for g in self.j_gens]
            basis, _ = gb.buchberger(vecs, (0,), self.field, self.poly_ring.degree_cap)
            self._gb = tuple(Polynomial(self.poly_ring, v) for v in basis)
        return self._gb

    def normal_forms(self, polys: Sequence[Polynomial]) -> list[Polynomial]:
        """The fully reduced normal form of each polynomial modulo J."""
        if any(p.ring != self.poly_ring for p in polys):
            raise RingMismatchError("polynomial from a different ring")
        basis = [g.vec for g in self.groebner()]
        return [
            Polynomial(self.poly_ring, r)
            for r in gb.normal_forms([p.vec for p in polys], basis, self.field)
        ]

    def is_zero(self, p: Polynomial) -> bool:
        return self.normal_forms([p])[0].is_zero()

    def is_trivial(self) -> bool:
        """True when J is the unit ideal (the ring is zero)."""
        basis = self.groebner()
        return any(g.total_degree() == 0 for g in basis)

    # -- invariants --

    def dim(self):
        """Krull dimension: the pole order of the Hilbert series at t=1
        (-inf for the zero ring)."""
        return self.hilbert_series().pole_order

    def hilbert_series(self) -> HilbertSeries:
        if self._hilbert is None:
            # Each basis vector's first key is its lead.
            leads = [next(iter(g.vec)) for g in self.groebner()]
            self._hilbert = lead_module_series(leads, 1, (0,), self.poly_ring)
        return self._hilbert

    def is_nilpotent(self, g: Polynomial) -> bool:
        """True iff g lies in the radical of J.

        Certificate: 1 in J + (1 - t*g) inside S[t], whose exponent tuples
        carry the power of t as one more entry; t makes the input
        inhomogeneous, which the engine allows here.
        """
        if self.is_zero(g):
            return True
        field = self.field

        def lift(p: Polynomial, tdeg: int) -> ModVec:
            return {(0, e + (tdeg,)): c for (_, e), c in p.vec.items()}

        one = (0,) * (self.nvars + 1)
        witness = {(0, one): field.one, **lift(-g, 1)}
        vecs = [lift(j, 0) for j in self.j_gens] + [witness]
        basis, _ = gb.buchberger(
            vecs, (0,), field, self.poly_ring.degree_cap, allow_inhomogeneous=True
        )
        return any(len(v) == 1 and next(iter(v))[1] == one for v in basis)

    # -- identity --

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuotientRing)
            and other.poly_ring == self.poly_ring
            and other.groebner() == self.groebner()
        )

    def __hash__(self):
        return hash((self.poly_ring, self.groebner()))

    def __repr__(self):
        if not self.j_gens:
            return repr(self.poly_ring)
        return f"{self.poly_ring!r}/({', '.join(map(str, self.j_gens))})"


def substitute(p: Polynomial, target: PolyRing, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate p under the ring map sending variable i to images[i]."""
    if len(images) != p.ring.nvars:
        raise ValueError("one image per source variable required")
    out = target.zero
    for (_, e), c in p.vec.items():
        term = target.poly({(0,) * target.nvars: c})
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * images[i]
        out = out + term
    return out


def quotient_ring_from_strings(
    variables: Sequence[str], ideal_texts: Sequence[str], field, degree_cap: int = DEFAULT_DEGREE_CAP
) -> QuotientRing:
    for name in variables:
        if not is_name(name):
            raise ValueError(
                f"variable name {name!r} must be a letter or '_' then letters, digits or '_'"
            )
    ring = PolyRing(variables, field, degree_cap)
    gens = [parse_poly(t, ring) for t in ideal_texts]
    return QuotientRing(ring, gens)
