"""Hilbert series of monomial quotients and Krull dimension.

A HilbertSeries is an integer Laurent numerator over the implicit
denominator (1-t)^m.  The reduced form divides out every factor of (1-t)
from the numerator; the remaining pole order at t=1 is the Krull dimension
of the graded module the series describes.
The numerators of monomial ideals are memoized on their polynomial ring
(PolyRing.numerators), which all rings of one job share.
"""

from __future__ import annotations

import math
from typing import Sequence

from .poly import Expo, PolyRing, mono_deg, mono_divides

NEG_INF = -math.inf
POS_INF = math.inf


class HilbertSeries:
    """numerator / (1-t)^den_pow with integer Laurent numerator."""

    __slots__ = ("num", "den_pow", "_reduced")

    def __init__(self, num: dict, den_pow: int):
        self.num = {k: v for k, v in num.items() if v != 0}
        self.den_pow = den_pow
        self._reduced = None

    def is_zero(self) -> bool:
        return not self.num

    def reduced(self) -> tuple[dict, float]:
        """(numerator with all (1-t) factors removed, pole order at t=1).

        The pole order of the zero series is -inf.
        """
        if self._reduced is not None:
            return self._reduced
        if not self.num:
            self._reduced = ({}, NEG_INF)
            return self._reduced
        num = dict(self.num)
        pole = self.den_pow
        while sum(num.values()) == 0:
            num = _divide_by_one_minus_t(num)
            pole -= 1
        self._reduced = (num, pole)
        return self._reduced

    @property
    def pole_order(self):
        return self.reduced()[1]

    def coefficient(self, d: int) -> int:
        """Coefficient of t^d in the power-series expansion."""
        num, pole = self.reduced()
        if not num:
            return 0
        if pole <= 0:
            # polynomial: multiply the reduced numerator by (1-t)^(-pole)
            poly = num
            for _ in range(-int(pole)):
                poly = _mul_one_minus_t(poly)
            return poly.get(d, 0)
        p = int(pole)
        total = 0
        for j, c in num.items():
            k = d - j
            if k >= 0:
                total += c * math.comb(k + p - 1, p - 1)
        return total

    def coefficients(self, upto: int) -> list[int]:
        """The Hilbert function in degrees 0..upto."""
        return [self.coefficient(d) for d in range(upto + 1)]

    def shift(self, w: int) -> HilbertSeries:
        """Multiply by t^w (internal-degree twist)."""
        return HilbertSeries({k + w: v for k, v in self.num.items()}, self.den_pow)

    def __add__(self, other: HilbertSeries) -> HilbertSeries:
        a, b = self, other
        if a.den_pow < b.den_pow:
            a, b = b, a
        num = dict(a.num)
        lifted = dict(b.num)
        for _ in range(a.den_pow - b.den_pow):
            lifted = _mul_one_minus_t(lifted)
        for k, v in lifted.items():
            num[k] = num.get(k, 0) + v
        return HilbertSeries(num, a.den_pow)

    def __sub__(self, other: HilbertSeries) -> HilbertSeries:
        neg = HilbertSeries({k: -v for k, v in other.num.items()}, other.den_pow)
        return self + neg

    def scale(self, c: int) -> HilbertSeries:
        return HilbertSeries({k: c * v for k, v in self.num.items()}, self.den_pow)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        ra, pa = self.reduced()
        rb, pb = other.reduced()
        return pa == pb and ra == rb

    def equal_up_to_twist(self, other: HilbertSeries):
        """The uniform w with self = t^w * other, or None."""
        ra, pa = self.reduced()
        rb, pb = other.reduced()
        if pa != pb:
            return None
        if not ra and not rb:
            return 0
        if not ra or not rb:
            return None
        w = min(ra) - min(rb)
        if {k - w: v for k, v in ra.items()} == rb:
            return w
        return None

    def __hash__(self):
        num, pole = self.reduced()
        return hash((frozenset(num.items()), pole))

    def to_json(self):
        num, pole = self.reduced()
        return {
            "numerator": [[k, v] for k, v in sorted(num.items())],
            "pole_order": None if pole == NEG_INF else int(pole),
        }

    def __repr__(self):
        num, pole = self.reduced()
        return f"HS({dict(sorted(num.items()))}, pole={pole})"


def table_json(table: dict) -> dict:
    """A homology table {degree: HilbertSeries} as JSON, keyed by str(degree)."""
    return {str(i): hs.to_json() for i, hs in sorted(table.items())}


def _divide_by_one_minus_t(num: dict) -> dict:
    """Divide a nonzero Laurent polynomial (summing to 0 at t=1) by (1-t)."""
    lo, hi = min(num), max(num)
    out = {}
    acc = 0
    # (1-t) * sum(b_k t^k) = sum((b_k - b_{k-1}) t^k): invert by prefix sums.
    for k in range(lo, hi + 1):
        acc += num.get(k, 0)
        if acc:
            out[k] = acc
    return out


def _mul_one_minus_t(num: dict) -> dict:
    out = {}
    for k, v in num.items():
        out[k] = out.get(k, 0) + v
        out[k + 1] = out.get(k + 1, 0) - v
    return {k: v for k, v in out.items() if v != 0}


# ---------- monomial ideals ----------

def _minimalize(gens: frozenset) -> frozenset:
    """The minimal generators of the monomial ideal.  A proper divisor has
    a smaller degree, so in ascending degree each monomial is checked only
    against those kept before it."""
    kept: list[Expo] = []
    for g in sorted(gens, key=mono_deg):
        if not any(mono_divides(h, g) for h in kept):
            kept.append(g)
    return frozenset(kept)


def _ideal_numerator(gens: frozenset, ring: PolyRing) -> tuple:
    """Numerator of HS(S/I) over (1-t)^nvars for the monomial ideal I of
    S = ring, memoized in ring.numerators by I's minimal generators.

    Bayer-Stillman splitting on the last generator g, with I the rest:
    N(I + (g)) = N(I) - t^deg(g) N(I : g).  A g that shares no variable
    with I has I : g = I, which the memo already holds, so monomials of
    disjoint supports need no rule of their own.  Returned as a sorted
    tuple of (degree, coeff) pairs.
    """
    memo = ring.numerators
    if gens in memo:  # a reduced basis's leads are already minimal
        return memo[gens]
    gens = _minimalize(gens)
    if not gens:
        return ((0, 1),)
    if (0,) * ring.nvars in gens:
        return ()
    if gens in memo:
        return memo[gens]
    ordered = sorted(gens)
    rest = frozenset(ordered[:-1])
    g = ordered[-1]
    num = dict(_ideal_numerator(rest, ring))
    colon = frozenset(tuple(max(a - b, 0) for a, b in zip(h, g)) for h in rest)
    d = mono_deg(g)
    for k, v in _ideal_numerator(colon, ring):
        num[k + d] = num.get(k + d, 0) - v
    memo[gens] = out = tuple(sorted((k, v) for k, v in num.items() if v != 0))
    return out


def lead_module_series(
    lead_terms: Sequence[tuple], rank: int, twists: Sequence[int], ring: PolyRing
) -> HilbertSeries:
    """Hilbert series of F/L for a monomial submodule L of the free module F.

    lead_terms: (component, exponent) pairs generating L.  F/L is the sum
    of the twisted S/L_j, so the component numerators, shifted by their
    twists, are summed into one series.
    """
    per_comp: list[list[Expo]] = [[] for _ in range(rank)]
    for comp, e in lead_terms:
        per_comp[comp].append(e)
    num = {}
    for gens, w in zip(per_comp, twists):
        for k, v in _ideal_numerator(frozenset(gens), ring):
            num[k + w] = num.get(k + w, 0) + v
    return HilbertSeries(num, ring.nvars)

