"""Fixture-level dimension-theory checks that depend on associated or
minimal primes.

Primary decomposition is out of scope, so the fixtures carry curated prime
lists; each list is validated by membership checks (the prime contains the
defining ideal; support membership is annihilator containment) before the
statement is asserted.
"""

from __future__ import annotations

import pytest

from conftest import poly, ring
from dgkoszul import (
    FPModule,
    cm_certify,
    dg_from_ring,
    greedy_regular_sequence,
    has_constant_amplitude,
    seq_depth,
    trivial_extension,
)
from dgkoszul.rings import QuotientRing


def _extension():
    B = ring("x", "y", ideal=["x*y"])
    M = FPModule.quotient_by_ideal(B, [poly("x", B)])
    return trivial_extension(B, M, 2)


# Each fixture: DG-ring factory, curated associated primes and minimal
# primes of H^0 (generator strings; [] is the zero ideal of a domain).
FIXTURES = [
    {
        "name": "polynomial ring",
        "make": lambda: dg_from_ring(ring("x", "y", "z")),
        "ass": [[]],
        "min_primes": [[]],
    },
    {
        "name": "nodal hypersurface",
        "make": lambda: dg_from_ring(ring("x", "y", ideal=["x*y"])),
        "ass": [["x"], ["y"]],
        "min_primes": [["x"], ["y"]],
    },
    {
        "name": "quadric cone",
        "make": lambda: dg_from_ring(ring("x", "y", "z", "w", ideal=["x*y - z*w"])),
        "ass": [["x*y - z*w"]],
        "min_primes": [["x*y - z*w"]],
    },
    {
        "name": "socle ring",
        "make": lambda: dg_from_ring(ring("x", "y", ideal=["x^2", "x*y"])),
        "ass": [["x"], ["x", "y"]],
        "min_primes": [["x"]],
    },
    {
        "name": "trivial extension",
        "make": _extension,
        "ass": [["x"], ["y"]],
        "min_primes": [["x"], ["y"]],
    },
]


def _prime_ring(A, gens):
    return QuotientRing(
        A.base.poly_ring, tuple(poly(t, A.base) for t in gens)
    )


def _validate_curated(A, prime_gens):
    """The curated prime must contain the defining ideal of H^0's reduction."""
    P = _prime_ring(A, prime_gens)
    for g in A.base.j_gens:
        assert P.is_zero(g) or P.is_nilpotent(P.nf(g)), (
            "curated prime does not contain the defining ideal"
        )


def _meets_bottom_support(A, prime_gens) -> bool:
    """p is in Supp(H^{inf}) iff ann(H^{inf}) is contained in p (membership
    of every annihilator generator, up to radical)."""
    P = _prime_ring(A, prime_gens)
    bottom = A.homology(A.inf())
    return all(P.is_nilpotent(P.nf(g)) for g in bottom.annihilator())


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx["name"])
def test_depth_bounded_by_coheight_of_associated_primes(fx):
    # seq.depth(A) <= dim(H0/p) for curated associated primes meeting the
    # support of the bottom cohomology
    A = fx["make"]()
    sd = seq_depth(A, A.irrelevant_ideal())
    for gens in fx["ass"]:
        _validate_curated(A, gens)
        if not _meets_bottom_support(A, gens):
            continue
        coheight = _prime_ring(A, gens).dim()
        assert sd <= coheight, (fx["name"], gens)


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx["name"])
def test_height_zero_matches_associated_primes_on_cm_fixtures(fx):
    # over CM fixtures with constant amplitude, the associated primes are
    # exactly the height-zero (minimal) primes
    A = fx["make"]()
    if cm_certify(A) != "true":
        return
    assert sorted(fx["ass"]) == sorted(fx["min_primes"])
    d = A.h0.dim()
    for gens in fx["min_primes"]:
        _validate_curated(A, gens)
        height = d - _prime_ring(A, gens).dim()
        assert height == 0, (fx["name"], gens)


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx["name"])
def test_equidimensionality_on_cm_fixtures(fx):
    A = fx["make"]()
    if cm_certify(A) != "true":
        return
    d = A.h0.dim()
    coheights = {
        _prime_ring(A, gens).dim() for gens in fx["min_primes"]
    }
    assert coheights == {d}, fx["name"]


@pytest.mark.parametrize("fx", FIXTURES, ids=lambda fx: fx["name"])
def test_regular_elements_avoid_associated_primes(fx):
    # with constant amplitude, every certified regular element lies outside
    # every curated associated prime
    A = fx["make"]()
    if not has_constant_amplitude(A):
        return
    # The greedy search's first element is the one any longer run starts with.
    witness = greedy_regular_sequence(A, A.irrelevant_ideal(), budget=200)
    for el in witness.elements[:1]:
        for gens in fx["ass"]:
            P = _prime_ring(A, gens)
            assert not P.is_zero(el.rep), (fx["name"], str(el.rep), gens)
