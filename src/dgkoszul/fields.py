"""Exact coefficient fields: prime fields F_p and the rationals.

Scalars are plain Python values (ints reduced into [0, p) for F_p,
fractions.Fraction for the rationals); the field objects own the
arithmetic, so no floating point appears anywhere downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

DEFAULT_PRIME = 32003

# A plain input bound on the characteristic (all arithmetic is in Python
# ints, which cannot overflow).  It also bounds _is_prime's trial division
# to odd divisors below sqrt(2^31), about 23,000 steps.
PRIME_BOUND = 2**31


class FieldError(ValueError):
    pass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """Arithmetic in F_p; elements are ints in [0, p)."""

    kind = "prime-field"
    __slots__ = ("p",)

    def __init__(self, p: int = DEFAULT_PRIME):
        if not isinstance(p, int):
            raise FieldError(f"the characteristic must be an integer, not {p!r}")
        if p >= PRIME_BOUND:
            raise FieldError(f"the characteristic {p} is not below 2^31")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def from_int(self, n: int) -> int:
        return n % self.p

    def norm(self, a: int) -> int:
        """An int reduced into [0, p): sums of products may skip the
        reduction until their value is read."""
        return a % self.p

    def primitive(self, row: dict) -> dict:
        """The row ({key: int}) normalized for linalg.Echelon, as a new dict:
        its entries reduced into (0, p), zeros dropped.  Every nonzero
        multiple spans the same line, so no scaling is needed."""
        p = self.p
        return {k: r for k, v in row.items() if (r := v % p)}

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def to_json(self):
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """Exact rational arithmetic via fractions.Fraction."""

    kind = "rationals"
    __slots__ = ()

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def norm(self, a):
        """A rational is exact as it is."""
        return a

    def primitive(self, row: dict) -> dict:
        """A nonzero multiple of the row ({key: coeff}) with int entries, as a
        new dict, for linalg.Echelon: the primitive one, whose entries are
        coprime ints and whose entry at the least key is positive, zeros
        dropped."""
        out = {k: v for k, v in row.items() if v}
        if not out:
            return out
        try:
            content = gcd(*out.values())
        except TypeError:  # a Fraction entry: clear the denominators first
            d = lcm(*(v.denominator for v in out.values()))
            out = {k: v.numerator * (d // v.denominator) for k, v in out.items()}
            content = gcd(*out.values())
        if out[min(out)] < 0:
            content = -content
        if content != 1:
            out = {k: v // content for k, v in out.items()}
        return out

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        return Fraction(a) / Fraction(b)

    def to_json(self):
        return {"kind": "rationals"}

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


def field_from_json(spec) -> PrimeField | RationalField:
    """Build a field from its wire form, e.g. {"kind": "prime", "p": 32003}."""
    if spec is None:
        return PrimeField()
    if not isinstance(spec, dict):
        raise FieldError("a field must be a JSON object")
    kind = spec.get("kind", "prime")
    if kind in ("prime", "prime-field"):
        return PrimeField(spec.get("p", DEFAULT_PRIME))
    if kind == "rationals":
        return RationalField()
    raise FieldError(f"unknown field kind {kind!r}")
