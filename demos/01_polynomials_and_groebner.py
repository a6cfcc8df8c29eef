"""Exact polynomial arithmetic and the Groebner engine.

Everything downstream is built on sparse multivariate polynomials over a
prime field (F_32003 by default) or the rationals.  This script walks
through parsing, monomial orders, Groebner bases, normal forms, syzygies
and Hilbert series.
"""

from dgkoszul import (
    GREVLEX,
    LEX,
    PolyRing,
    PrimeField,
    parse_poly,
    quotient_ring_from_strings,
)
from dgkoszul import groebner as gb

field = PrimeField()
R = PolyRing(("x", "y", "z"), field)

# --- parsing normalizes on the way in ---
p = parse_poly("x*y - z^2", R)
print("parsed:", p)
print("x + x  ->", parse_poly("x + x", R))
print("x^2*y - y*x^2 ->", parse_poly("x^2*y - y*x^2", R))

# --- monomial orders ---
# grevlex compares total degree first; on ties the rightmost difference
# decides (smaller exponent wins).  y^2 beats x*z:
print("grevlex(y^2, x*z) =", GREVLEX.compare((0, 2, 0), (1, 0, 1)))
print("lex(x, y^100)     =", LEX.compare((1, 0, 0), (0, 100, 0)))

# --- a Groebner basis over the lex order ---
Rlex = PolyRing(("x", "y", "z"), field, LEX)
gens = [parse_poly(t, Rlex) for t in ("x^2 - y", "x*y - z")]
vecs = [gb.column_to_vec((g,)) for g in gens]
order = gb.TermOverPosition(LEX)
basis = gb.buchberger(vecs, (0,), order, field, rank=1, allow_inhomogeneous=True)
print("\nlex basis of (x^2 - y, x*y - z):")
for v in basis:
    print("  ", gb.vec_to_column(v, Rlex, 1)[0])
claimed = parse_poly("y^2 - x*z", Rlex)
rem = gb.normal_form(gb.column_to_vec((claimed,)), basis, order, field)
print("y^2 - x*z reduces to zero:", not rem)

# --- syzygies ---
R2 = PolyRing(("x", "y"), field)
vx = gb.column_to_vec((parse_poly("x", R2),))
vy = gb.column_to_vec((parse_poly("y", R2),))
syz = gb.TaggedBasis([vx, vy], (0,), R2).syzygies()
print("\nsyzygies of (x, y):", [gb.vec_to_column(s, R2, 2) for s in syz])

# --- Hilbert series and Krull dimension of quotient rings ---
for variables, ideal in [
    (("x", "y"), ["x*y"]),
    (("x", "y"), ["x^2", "x*y"]),
    (("x", "y", "z", "w"), ["x*y - z*w"]),
]:
    Q = quotient_ring_from_strings(variables, ideal, field)
    print(
        f"\nS/{tuple(ideal)}: dim = {Q.dim()}, "
        f"Hilbert function = {Q.hilbert_series().coefficients(6, start=0)}"
    )

# --- radical membership (nilpotency) without primary decomposition ---
Q = quotient_ring_from_strings(("x", "y"), ["x^2"], field)
print("\nx nilpotent in k[x,y]/(x^2):", Q.is_nilpotent(parse_poly("x", Q.poly_ring)))
Q2 = quotient_ring_from_strings(("x", "y"), ["x*y"], field)
print("x nilpotent in k[x,y]/(x*y):", Q2.is_nilpotent(parse_poly("x", Q2.poly_ring)))
