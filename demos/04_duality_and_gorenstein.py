"""Free resolutions, dualizing complexes, and Gorenstein transfer.

The dualizing complex of Q = S/J is the shifted S-dual of a minimal free
resolution, normalized so its bottom degree is -dim(Q); its amplitude
vanishes exactly when Q is Cohen-Macaulay.  For a Koszul DG-ring K over a
ring, the dualizing DG-module is K[-n] (x) R, and the amplitude comparison
amp(K) = amp(D) certifies Cohen-Macaulayness of K.
"""

from dgkoszul import (
    FPModule,
    PrimeField,
    betti_numbers,
    dg_from_ring,
    dualizing_complex,
    dualizing_of_koszul,
    free_resolution,
    gorenstein_dg_check,
    is_gorenstein_ring,
    koszul,
    parse_poly,
    quotient_ring_from_strings,
    self_duality_check,
)

field = PrimeField()


def ring(variables, ideal=()):
    return quotient_ring_from_strings(variables, list(ideal), field)


# --- minimal free resolutions and Betti numbers ---
Q = ring(("x", "y"))
k_module = FPModule.quotient_by_ideal(
    Q, [parse_poly("x", Q.poly_ring), parse_poly("y", Q.poly_ring)]
)
print("Betti numbers of k over k[x,y]:", betti_numbers(free_resolution(k_module)))

for variables, ideal in [
    (("x", "y"), ["x*y"]),
    (("x", "y"), ["x^2", "x*y"]),
    (("x", "y", "z"), ["x^2", "x*y", "y^2"]),
]:
    R = ring(variables, ideal)
    # R as a module over itself: one generator of twist 0, no relations.
    res = free_resolution(FPModule(R, (0,)))
    gor, data = is_gorenstein_ring(R)
    print(
        f"S/{tuple(ideal)}: Betti {betti_numbers(res)}, "
        f"CM = {data['cohen_macaulay']}, type-1 = {data['type_one']}, "
        f"Gorenstein = {gor}"
    )

# --- dualizing complexes: amp 0 iff Cohen-Macaulay ---
for variables, ideal in [
    (("x", "y", "z"), []),
    (("x", "y"), ["x*y"]),
    (("x", "y"), ["x^2", "x*y"]),
]:
    R = ring(variables, ideal)
    D = dualizing_complex(R)
    print(f"dualizing complex of S/{tuple(ideal)}: inf {D.inf()}, amp {D.amp()}")

# --- self-duality of Koszul complexes ---
K = koszul(dg_from_ring(ring(("x", "y"), ["x*y"])), ["x", "y"])
rep = self_duality_check(K)
print("\nHom(K, A) = K[-2] via a +-1 chain isomorphism:", rep["pass"])

# --- the amplitude criterion for Koszul DG-rings ---
for variables, ideal, elements in [
    (("x", "y"), ["x*y"], ["x"]),
    (("x", "y", "z", "w"), ["x*y - z*w"], ["x", "z"]),
]:
    KK = koszul(dg_from_ring(ring(variables, ideal)), elements)
    D = dualizing_of_koszul(KK)
    print(
        f"K(S/{tuple(ideal)}; {elements}): amp(K) = {KK.amp()}, amp(D) = {D.amp()}"
    )

# --- Gorenstein transfer in both directions ---
hyp = dg_from_ring(ring(("x", "y", "z"), ["x^2 - y*z"]))
print("\nK(k[x,y,z]/(x^2-yz); y) Gorenstein:",
      gorenstein_dg_check(koszul(hyp, ["y"]))["verdict"])
type2 = dg_from_ring(ring(("x", "y", "z"), ["x^2", "x*y", "y^2"]))
print("K(type-two ring; z) Gorenstein:",
      gorenstein_dg_check(koszul(type2, ["z"]))["verdict"])
