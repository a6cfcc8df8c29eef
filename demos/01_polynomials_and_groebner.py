"""Exact polynomial arithmetic and the Groebner engine.

Everything downstream is built on sparse multivariate polynomials over a
prime field (F_32003 by default) or the rationals.  This script walks
through parsing, the monomial order (grevlex, the only one), Groebner
bases, normal forms, syzygies and Hilbert series.
"""

from dgkoszul import (
    PolyRing,
    Polynomial,
    PrimeField,
    parse_poly,
    quotient_ring_from_strings,
)
from dgkoszul import groebner as gb
from dgkoszul.poly import grevlex_key, vec_to_column

field = PrimeField()
R = PolyRing(("x", "y", "z"), field)

# --- parsing normalizes on the way in ---
p = parse_poly("x*y - z^2", R)
print("parsed:", p)
print("x + x  ->", parse_poly("x + x", R))
print("x^2*y - y*x^2 ->", parse_poly("x^2*y - y*x^2", R))

# --- the monomial order ---
# grevlex compares total degree first; on ties the rightmost difference
# decides (smaller exponent wins).  y^2 beats x*z, and any cubic beats x^2:
print("grevlex: y^2 > x*z   ", grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1)))
print("grevlex: z^3 > x^2   ", grevlex_key((0, 0, 3)) > grevlex_key((2, 0, 0)))

# --- a Groebner basis in grevlex ---
# A polynomial is the rank-1 case of a module vector: p.vec maps
# (0, exponent) to the coefficient, and the engine works on such vectors.
# The generators are inhomogeneous, which the engine allows on request.
gens = [parse_poly(t, R) for t in ("x^2 - y", "x*y - z")]
basis, _ = gb.buchberger([g.vec for g in gens], (0,), field, allow_inhomogeneous=True)
print("\ngrevlex basis of (x^2 - y, x*y - z):")
for v in basis:
    print("  ", Polynomial(R, v))
# y^2 - x*z = x*(x*y - z) - y*(x^2 - y) lies in the ideal:
claimed = parse_poly("y^2 - x*z", R)
rem = gb.normal_forms([claimed.vec], basis, field)[0]
print("y^2 - x*z reduces to zero:", not rem)

# --- syzygies ---
R2 = PolyRing(("x", "y"), field)
vx = parse_poly("x", R2).vec
vy = parse_poly("y", R2).vec
syz = gb.syzygies([vx, vy], (0,), R2)
print("\nsyzygies of (x, y):", [vec_to_column(s, R2, 2) for s in syz])

# --- Hilbert series and Krull dimension of quotient rings ---
for variables, ideal in [
    (("x", "y"), ["x*y"]),
    (("x", "y"), ["x^2", "x*y"]),
    (("x", "y", "z", "w"), ["x*y - z*w"]),
]:
    Q = quotient_ring_from_strings(variables, ideal, field)
    print(
        f"\nS/{tuple(ideal)}: dim = {Q.dim()}, "
        f"Hilbert function = {Q.hilbert_series().coefficients(6)}"
    )

# --- radical membership (nilpotency) without primary decomposition ---
Q = quotient_ring_from_strings(("x", "y"), ["x^2"], field)
print("\nx nilpotent in k[x,y]/(x^2):", Q.is_nilpotent(parse_poly("x", Q.poly_ring)))
Q2 = quotient_ring_from_strings(("x", "y"), ["x*y"], field)
print("x nilpotent in k[x,y]/(x*y):", Q2.is_nilpotent(parse_poly("x", Q2.poly_ring)))
