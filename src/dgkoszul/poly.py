"""Exact polynomials and module vectors, ordered by grevlex.

A monomial is an exponent tuple (one entry per variable, standard grading:
every variable has degree 1).  A module element (ModVec) is a sparse map

    (component, exponent tuple) -> nonzero field scalar

over a free module with an integer twist per component (the internal
degree of that basis vector), so that a term's degree is
deg(monomial) + twist[component].  It is the only element type of the
package: generators, relations, kernels and syzygies are all ModVecs, and
a map of free modules (a differential or a module map) is the tuple of its
columns, column j the ModVec of the image of source generator j in
target-generator coordinates.  Composition is vec_combination.

A ring element is the rank-1 case.  A Polynomial is its ring context
(variable names + coefficient field) together with the rank-1 ModVec
{(0, e): c}; its arithmetic is the vec_* helpers, and it is the view in
which ring elements are parsed and printed.  column_to_vec and
vec_to_column convert a column of several entries to and from Polynomials.
Zero coefficients are never stored, so equality testing is exact
dictionary equality.  All values are immutable after construction and safe
to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Expo = tuple  # exponent tuple, one non-negative int per variable
ModTerm = tuple  # (component, exponent tuple)
ModVec = dict  # ModTerm -> scalar


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


# ---------- module element helpers ----------

def vec_scale(a: ModVec, c, field) -> ModVec:
    """c * a, for a nonzero scalar c."""
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


# ---------- rings and polynomials ----------

DEFAULT_DEGREE_CAP = 40  # of a ring given no cap, and of the CLI

# Bounds on one Polynomial product: on its term pairs len(a) * len(b), and
# on its degree.  Only job input is multiplied (the parser's '*', ring-map
# substitution).  A short product of sums can have millions of terms, and a
# short product of powers a degree whose Hilbert numerators cost work in
# proportion to it.  A product of two powers at parse.MAX_EXPONENT passes.
MAX_PRODUCT_TERMS = 10_000
MAX_PRODUCT_DEGREE = 10_000


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
        zero = self.field.zero
        return Polynomial(self, {(0, e): c for e, c in terms.items() if c != zero})

    @property
    def zero(self) -> Polynomial:
        return Polynomial(self, {})

    @property
    def one(self) -> Polynomial:
        return Polynomial(self, {(0, self._zero_expo): self.field.one})

    def const(self, n: int) -> Polynomial:
        return self.poly({self._zero_expo: self.field.from_int(n)})

    def var(self, i: int) -> Polynomial:
        e = [0] * self.nvars
        e[i] = 1
        return self.monomial(e)

    def monomial(self, e: Expo) -> Polynomial:
        return Polynomial(self, {(0, tuple(e)): self.field.one})

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
    """Immutable sparse polynomial: a PolyRing and a rank-1 ModVec
    {(0, e): c} with no zero coefficient.  PolyRing.poly builds one from
    exponent -> coefficient."""

    __slots__ = ("ring", "vec", "_hash")

    def __init__(self, ring: PolyRing, vec: ModVec):
        self.ring = ring
        self.vec = vec
        self._hash = None

    # -- queries --

    def is_zero(self) -> bool:
        return not self.vec

    def total_degree(self) -> int:
        """Max term degree; -1 for the zero polynomial."""
        return max((mono_deg(e) for _, e in self.vec), default=-1)

    def homogeneous_degree(self):
        """The common degree of all terms, or None if inhomogeneous.

        Zero counts as homogeneous of every degree and returns None.
        """
        return vec_degree(self.vec, (0,))

    # -- arithmetic --

    def _check(self, other: Polynomial):
        if other.ring != self.ring:
            raise RingMismatchError("polynomials from different rings")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        f = self.ring.field
        out = dict(self.vec)
        vec_add_multiple(out, other.vec, self.ring._zero_expo, f.one, f)
        return Polynomial(self.ring, out)

    def __neg__(self) -> Polynomial:
        f = self.ring.field
        return Polynomial(self.ring, vec_scale(self.vec, f.neg(f.one), f))

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + (-other)

    def __mul__(self, other: Polynomial) -> Polynomial:
        self._check(other)
        pairs = len(self.vec) * len(other.vec)
        if pairs > MAX_PRODUCT_TERMS:
            raise ValueError(f"a product of {pairs} term pairs exceeds {MAX_PRODUCT_TERMS}")
        degree = self.total_degree() + other.total_degree()
        if degree > MAX_PRODUCT_DEGREE:
            raise ValueError(f"a product of degree {degree} exceeds {MAX_PRODUCT_DEGREE}")
        return Polynomial(self.ring, vec_combination([other.vec], self.vec, self.ring.field))

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
        return self.mul_term(self.ring._zero_expo, c)

    def mul_term(self, e: Expo, c) -> Polynomial:
        """Multiply by the single term c * x^e."""
        return Polynomial(self.ring, vec_combination([self.vec], {(0, e): c}, self.ring.field))

    # -- identity --

    def sort_key(self):
        """A canonical sortable key (degree-major, deterministic): the
        (monomial key, coefficient repr) of the terms in descending order,
        so zero sorts first."""
        terms = ((grevlex_key(e), repr(c)) for (_, e), c in self.vec.items())
        return tuple(sorted(terms, reverse=True))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.vec == self.vec
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.vec.items())))
        return self._hash

    def __repr__(self):
        return poly_to_text(self)


# ---------- columns with Polynomial entries ----------

def column_to_vec(entries: Iterable[Polynomial]) -> ModVec:
    """A column, given top to bottom as Polynomials, as a ModVec."""
    return {(comp, e): c for comp, p in enumerate(entries) for (_, e), c in p.vec.items()}


def vec_to_column(v: ModVec, ring: PolyRing, rank: int) -> tuple[Polynomial, ...]:
    """The rank entries of v as a column of Polynomials."""
    buckets: list[ModVec] = [{} for _ in range(rank)]
    for (comp, e), c in v.items():
        buckets[comp][0, e] = c
    return tuple(Polynomial(ring, b) for b in buckets)


# ---------- printing ----------

def poly_to_text(p: Polynomial) -> str:
    """Render in the parser grammar (terms in descending grevlex order).

    Integer coefficients round-trip through parse_poly; rational
    coefficients with denominator > 1 are display-only.
    """
    if not p.vec:
        return "0"
    names = p.ring.variables
    one = p.ring.field.one
    pieces = []
    for _, e in sorted(p.vec, key=lambda t: grevlex_key(t[1]), reverse=True):
        c = p.vec[0, e]
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
        elif c == -one:
            term = "-" + body
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
