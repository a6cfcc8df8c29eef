"""Exact multivariate polynomials, ordered by grevlex.

A monomial is an exponent tuple (one entry per variable, standard grading:
every variable has degree 1).  A polynomial is a sparse map

    exponent tuple -> nonzero field scalar

wrapped together with its ring context (variable names + coefficient
field).  Zero coefficients are never stored, so equality testing is exact
dictionary equality.  All values are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

from typing import Iterable

Expo = tuple  # exponent tuple, one non-negative int per variable


class RingMismatchError(ValueError):
    pass


# ---------- monomial helpers ----------

def mono_deg(e: Expo) -> int:
    return sum(e)


def mono_mul(a: Expo, b: Expo) -> Expo:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: Expo, b: Expo) -> bool:
    """True if x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


# ---------- the monomial order ----------

def grevlex_key(e: Expo):
    """Sort key of the graded reverse lexicographic order, the only
    monomial order: a larger key is a larger monomial."""
    return (sum(e), tuple(-x for x in reversed(e)))


# ---------- rings and polynomials ----------

DEFAULT_DEGREE_CAP = 40  # of a ring given no cap, and of the CLI


class PolyRing:
    """A polynomial ring k[x_1..x_m].

    Acts as the ring-context id: operations between polynomials of
    different PolyRings raise RingMismatchError.  All rings of a job share
    one, so it carries the job's state, outside ring equality: the S-pair
    degree cap and the memo of monomial-ideal Hilbert numerators.
    """

    __slots__ = ("variables", "field", "degree_cap", "numerators", "_zero_expo")

    def __init__(self, variables: Iterable[str], field, degree_cap: int = DEFAULT_DEGREE_CAP):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.variables = variables
        self.field = field
        self.degree_cap = degree_cap
        self.numerators: dict = {}
        self._zero_expo = (0,) * len(variables)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def poly(self, terms: dict) -> Polynomial:
        """Build a polynomial from expo->scalar, dropping zeros."""
        clean = {e: c for e, c in terms.items() if c != self.field.zero}
        return Polynomial(self, clean)

    @property
    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    @property
    def one(self) -> Polynomial:
        return Polynomial(self, {self._zero_expo: self.field.one})

    def const(self, n: int) -> Polynomial:
        return self.poly({self._zero_expo: self.field.from_int(n)})

    def var(self, i: int) -> Polynomial:
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def var_named(self, name: str) -> Polynomial:
        return self.var(self.variables.index(name))

    def monomial(self, e: Expo, coeff=None) -> Polynomial:
        c = self.field.one if coeff is None else coeff
        return self.poly({tuple(e): c})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyRing)
            and other.variables == self.variables
            and other.field == self.field
        )

    def __hash__(self):
        return hash((self.variables, self.field))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"


class Polynomial:
    """Immutable sparse polynomial over a PolyRing."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- queries --

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_deg(e) for e in self.terms)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if inhomogeneous.

        Zero counts as homogeneous of every degree and returns None.
        """
        degs = {mono_deg(e) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return len({mono_deg(e) for e in self.terms}) <= 1

    # -- arithmetic --

    def _check(self, other: Polynomial):
        if other.ring != self.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if s == f.zero:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> Polynomial:
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        f = self.ring.field
        out: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = mono_mul(ea, eb)
                s = f.add(out.get(e, f.zero), f.mul(ca, cb))
                if s == f.zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise ValueError("negative exponent")
        result = self.ring.one
        for bit in bin(n)[2:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale(self, c) -> Polynomial:
        f = self.ring.field
        if c == f.zero:
            return self.ring.zero
        return Polynomial(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def mul_term(self, e: Expo, c) -> Polynomial:
        """Multiply by the single term c * x^e."""
        f = self.ring.field
        if c == f.zero:
            return self.ring.zero
        return Polynomial(
            self.ring, {mono_mul(e, e0): f.mul(c, v) for e0, v in self.terms.items()}
        )

    # -- identity --

    def sort_key(self):
        """A canonical sortable key (degree-major, deterministic)."""
        keys = ((grevlex_key(e), repr(c)) for e, c in self.terms.items())
        return tuple(sorted(keys, reverse=True))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        return poly_to_text(self)


# ---------- printing ----------

def poly_to_text(p: Polynomial) -> str:
    """Render in the parser grammar (terms in descending grevlex order).

    Integer coefficients round-trip through parse_poly; rational
    coefficients with denominator > 1 are display-only.
    """
    if not p.terms:
        return "0"
    names = p.ring.variables
    one = p.ring.field.one
    pieces = []
    for e in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[e]
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        body = "*".join(factors)
        cs = str(c)
        if not body:
            term = cs
        elif c == one:
            term = body
        else:
            term = f"{cs}*{body}"
        pieces.append(term)
    text = pieces[0]
    for term in pieces[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text
