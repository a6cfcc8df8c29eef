"""Koszul DG-rings and their homology.

The Koszul DG-ring K(A; a_1..a_n) is the derived quotient of A by classes
of H^0(A).  On a regular sequence it collapses to the plain quotient; on a
zerodivisor the lower homology records the failure.  Every homology table
printed here is double-checked by the degree-truncation oracle, a plain
linear-algebra computation that never touches a Groebner basis.
"""

from dgkoszul import (
    FPModule,
    PrimeField,
    dg_from_ring,
    koszul,
    lift_independence_check,
    parse_poly,
    quotient_ring_from_strings,
    trivial_extension,
    truncation_oracle,
)
from dgkoszul.complexes import homology_hilbert_functions

field = PrimeField()


def show(title, K, depth=6):
    print(f"\n== {title}")
    print(f"   inf = {K.inf()}, sup = {K.sup()}, amp = {K.amp()}")
    for i, hs in sorted(K.homology_table().items()):
        print(f"   H^{i}: Hilbert function {hs.coefficients(5)}")
    oracle = truncation_oracle(K.underlying, depth)
    symbolic = homology_hilbert_functions(K.underlying, depth)
    print(f"   oracle agrees through degree {depth}:", oracle == symbolic)


# a regular sequence collapses: K(k[x,y,z]; x, y, z) = k
Q3 = quotient_ring_from_strings(("x", "y", "z"), [], field)
show("K(k[x,y,z]; x, y, z)", koszul(dg_from_ring(Q3), ["x", "y", "z"]))

# one zerodivisor: H^-1 is the annihilator of x, the ideal (y)
Qxy = quotient_ring_from_strings(("x", "y"), ["x*y"], field)
show("K(k[x,y]/(xy); x)", koszul(dg_from_ring(Qxy), ["x"]))

# iterated Koszul complexes agree with the flat one (derived composition)
A = dg_from_ring(Qxy)
iterated = koszul(koszul(A, ["x"]), ["y"])
flat = koszul(A, ["x", "y"])
print(
    "\niterated K(K(A;x); y) matches K(A; x, y):",
    iterated.homology_table() == flat.homology_table(),
)

# homology does not depend on the chosen lifts of a class
lifted = lift_independence_check(
    koszul(dg_from_ring(quotient_ring_from_strings(("x", "y"), [], field)), ["x"]),
    ["y^2"],
    ["y^2 + x*y"],
)
print("lift independence over a DG base:", lifted["equal"])

# a trivial extension B (semidirect) M[2] has amplitude 2 by construction
B = quotient_ring_from_strings(("x", "y"), ["x*y"], field)
M = FPModule.quotient_by_ideal(B, [parse_poly("x", B.poly_ring)])
ext = trivial_extension(B, M, 2)
show("B (semidirect) (B/(x))[2]", ext)

# ... and its Koszul complex on y overlays the two layers
show("K(B (semidirect) (B/x)[2]; y)", koszul(ext, ["y"]))
