"""Depth, sequential depth, and Cohen-Macaulay certification.

Depth is read from the Koszul DG-ring:
depth(I, A) = inf K(A; gens) + n; sequential depth subtracts inf(A).  A greedy search for explicit regular sequences cross-checks the
numbers, and the local-CM / constant-amplitude flags combine into a
three-valued Cohen-Macaulay certificate.
"""

from dgkoszul import (
    FPModule,
    PrimeField,
    cm_certify,
    compute_invariants,
    depth,
    dg_from_ring,
    flatdim_over_regular,
    greedy_regular_sequence,
    has_constant_amplitude,
    is_local_cm,
    koszul,
    parse_poly,
    quotient_ring_from_strings,
    seq_depth,
    trivial_extension,
)

field = PrimeField()


def ring(variables, ideal=()):
    return quotient_ring_from_strings(variables, list(ideal), field)


# --- depth at the irrelevant ideal ---
quadric = dg_from_ring(ring(("x", "y", "z", "w"), ["x*y - z*w"]))
print("quadric cone k[x,y,z,w]/(xy - zw):")
print("  depth(m) =", depth(quadric, quadric.irrelevant_ideal()))
print("  seq.depth(I) for I = (x, z):", seq_depth(quadric, ["x", "z"]))
witness = greedy_regular_sequence(quadric, ["x", "z"])
print(
    "  greedy witness:",
    [str(e.rep) for e in witness.elements],
    "(exhausted:", str(witness.exhausted) + ")",
)

# the formula seq.depth(I) = dim H^0 - dim(H^0/I) for CM rings:
print("  dim - dim(H0/I) =", quadric.h0.dim() - 2, "(matches)")

# --- the socle ring has depth 0: x kills the irrelevant ideal ---
socle = dg_from_ring(ring(("x", "y"), ["x^2", "x*y"]))
print("\nsocle ring k[x,y]/(x^2, xy):")
print("  depth(m) =", depth(socle, socle.irrelevant_ideal()))
print("  local-CM:", is_local_cm(socle), "-> certificate:", cm_certify(socle))

# --- the amplitude formula and its CM hypothesis ---
# amp K(A; a) = n - dim H0(A) + dim(H0(A)/I) - inf(A) needs A CM:
A3 = dg_from_ring(ring(("x", "y", "z")))
K = koszul(A3, ["x", "y", "x"])
print("\nK(k[x,y,z]; x, y, x): amp =", K.amp(), "formula gives", 3 - 3 + 1 - 0)
Ksoc = koszul(socle, ["y"])
print("K(socle; y): amp =", Ksoc.amp(), "formula would give", 1 - 1 + 0 - 0, "(hypothesis fails)")

# --- the counterexample: local-CM without constant amplitude ---
B = ring(("x", "y"), ["x*y"])
M = FPModule.quotient_by_ideal(B, [parse_poly("x", B.poly_ring)])
ext = trivial_extension(B, M, 2)
print("\nA = B (semidirect) (B/x)[2]:")
print("  local-CM:", is_local_cm(ext))
print("  constant amplitude:", has_constant_amplitude(ext))
Key = koszul(ext, ["y"])
print("  K(A; y): seq.depth =", seq_depth(Key, Key.irrelevant_ideal()),
      "< dim H0 =", Key.h0.dim(), "-> certificate:", cm_certify(Key))

# --- homotopy fibers and miracle flatness ---
target = dg_from_ring(ring(("u", "v"), ["u*v"]))
report = flatdim_over_regular(["t"], ["u+v"], target)
print("\nk[t] -> k[u,v]/(uv), t -> u+v:")
print("  flatdim =", report["flatdim"], " dimension count =", report["rhs"])

free_ext = dg_from_ring(ring(("x", "y"), ["y^2"]))
report = flatdim_over_regular(["t"], ["x"], free_ext)
print("k[x] inside k[x,y]/(y^2): flatdim =", report["flatdim"],
      "= amp ->", report["cm_certified"], "Cohen-Macaulay")

nonfree = dg_from_ring(ring(("x", "y"), ["y^2", "x*y"]))
report = flatdim_over_regular(["t"], ["x"], nonfree)
print("k[x] inside k[x,y]/(y^2, xy): flatdim =", report["flatdim"],
      "!= amp ->", report["cm_certified"], "Cohen-Macaulay")

# --- everything at once: the invariant report ---
print("\nfull invariant report for the trivial extension:")
rep = compute_invariants(ext, ideals={"q": ["y"]})
for key in ("inf", "sup", "amp", "dim_h0", "lcdim",
            "depth_at_irrelevant", "seq_depth_at_irrelevant",
            "local_cm", "constant_amplitude", "cm_certified"):
    print(f"  {key}: {rep[key]}")
