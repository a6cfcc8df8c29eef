"""Numerical invariants of DG-rings.

Depth is taken for M = A through the Koszul DG-ring:
depth(I, A) = inf K(A; gens) + n, which only depends on the ideal;
sequential depth is depth - inf(A).  The greedy regular-sequence search is
a cross-check oracle: a negative answer is only certified for the
enumerated candidate set, and budget exhaustion is flagged, never silently
treated as "no regular element".
"""

from __future__ import annotations

import itertools

from .complexes import _monomials_of_degree
from .dgring import DGRingRep, ElementOfH0, _as_element, koszul
from .hilbert import NEG_INF, POS_INF, table_json
from .modules import kernel, regular_quotient
from .poly import Polynomial, vec_offset, vec_to_column


class ImproperIdealError(ValueError):
    pass


class AcyclicModuleError(ValueError):
    pass


def sentinel_json(x):
    if x == POS_INF:
        return "+inf"
    if x == NEG_INF:
        return "-inf"
    return int(x)


def amp_profile(A: DGRingRep):
    """(inf, sup, amp) of the cohomology, with sentinels for acyclic input."""
    return A.inf(), A.sup(), A.amp()


def lcdim(A: DGRingRep):
    """sup over n of dim(H^n(A)) + n, read from the homology series."""
    return max((hs.pole_order + i for i, hs in A.homology_table().items()), default=NEG_INF)


def _bottom_homology(A: DGRingRep):
    """(inf(A), H^{inf}(A)); regularity is undefined when A is acyclic."""
    lo = A.inf()
    if lo == POS_INF:
        raise AcyclicModuleError("regularity is undefined for acyclic modules")
    return lo, A.homology(lo)


def _certificate(x: ElementOfH0, lo, regular: bool) -> dict:
    return {"element": str(x.rep), "bottom_degree": int(lo), "kernel_is_zero": regular}


def is_regular(A: DGRingRep, x) -> tuple[bool, dict]:
    """x is A-regular iff multiplication by x on H^{inf(A)}(A) is injective,
    decided by regular_quotient.  The kernel of a non-regular x is built only
    to report an element of it outside the relations (kernel_witness)."""
    x = _as_element(x, A.base)
    lo, h = _bottom_homology(A)
    ok = regular_quotient(h, x.rep, x.degree) is not None
    cert = _certificate(x, lo, ok)
    if not ok:
        times_x = [vec_offset(x.rep.vec, j) for j in range(h.rank)]
        witness = next(v for v in kernel(times_x, h) if not h.element_is_zero(v))
        column = vec_to_column(witness, h.ring.poly_ring, h.rank)
        cert["kernel_witness"] = [str(p) for p in column]
    return ok, cert


def _proper_koszul(A: DGRingRep, elems) -> DGRingRep:
    """K(A; elems), once its H^0 = H^0(A)/(elems) is known to be nonzero."""
    K = koszul(A, elems)
    if K.h0.is_trivial():
        raise ImproperIdealError("ideal is the unit ideal of H^0")
    return K


def depth(A: DGRingRep, ideal_gens):
    """depth(I, A) = inf K(A; gens) + n for any generating set of I.

    Depth is taken for M = A only, through the Koszul DG-ring K(A; gens)
    that `koszul` memoizes on A.
    """
    elems = [_as_element(e, A.base) for e in ideal_gens]
    lo = _proper_koszul(A, elems).inf()
    if lo == POS_INF:
        return POS_INF
    return lo + len(elems)


def seq_depth(A: DGRingRep, ideal_gens):
    """Sequential depth: depth - inf(A)."""
    d = depth(A, ideal_gens)
    lo = A.inf()
    if d == POS_INF or lo == POS_INF:
        return POS_INF
    return d - lo


class RegularSequenceWitness:
    def __init__(self):
        self.elements = []
        self.certificates = []
        self.exhausted = False
        self.tested = 0

    def __len__(self):
        return len(self.elements)

    def to_json(self):
        return {
            "elements": [str(e.rep) for e in self.elements],
            "certificates": self.certificates,
            "exhausted": self.exhausted,
            "tested": self.tested,
        }


# The top degree of the regular-sequence candidates; a generator of higher
# degree is a candidate at its own degree only.
CANDIDATE_DEGREE = 2


def _candidate_pool(B: DGRingRep, gens: list[ElementOfH0]):
    """Deterministic homogeneous candidates inside the ideal: monomial
    multiples of the generators up to CANDIDATE_DEGREE (each generator at
    least at its own degree), then pairwise sums within each degree.
    Candidates are H^0-reduced and deduplicated."""
    ring = B.base.poly_ring
    degrees, products = [], []
    for g in gens:
        if g.rep.is_zero():
            continue
        for d in range(g.degree, max(g.degree, CANDIDATE_DEGREE) + 1):
            for mono in _monomials_of_degree(ring.nvars, d - g.degree):
                degrees.append(d)
                products.append(g.rep.mul_term(mono, ring.field.one))
    by_degree: dict[int, list[Polynomial]] = {}
    seen = set()
    for d, cand in zip(degrees, B.h0.normal_forms(products)):
        if cand.is_zero():
            continue
        key = cand.sort_key()
        if key in seen:
            continue
        seen.add(key)
        by_degree.setdefault(d, []).append(cand)
    pool = []
    for d in sorted(by_degree):
        singles = sorted(by_degree[d], key=lambda p: p.sort_key())
        pool.extend(singles)
        for a, b in itertools.combinations(singles, 2):
            s = a + b  # a sum of normal forms is a normal form
            if s.is_zero():
                continue
            key = s.sort_key()
            if key in seen:
                continue
            seen.add(key)
            pool.append(s)
    return pool


def greedy_regular_sequence(A: DGRingRep, ideal_gens, budget: int = 400) -> RegularSequenceWitness:
    """Greedy search for a maximal regular sequence inside the ideal.

    Each candidate is tested on H^{inf} by regular_quotient.  Each found
    element passes to the Koszul DG-ring and the search recurses on the
    ideal's image.  The witness records per-step certificates and whether
    the budget ran out before the candidate pool was fully examined.
    """
    elems = [_as_element(e, A.base) for e in ideal_gens]
    _proper_koszul(A, elems)
    witness = RegularSequenceWitness()
    stage = A
    remaining = budget
    while True:
        if stage.inf() == POS_INF:
            break
        pool = _candidate_pool(stage, elems)
        advanced = False
        for cand in pool:
            if remaining <= 0:
                witness.exhausted = True
                return witness
            remaining -= 1
            witness.tested += 1
            lo, h = _bottom_homology(stage)  # memoized on the stage
            el = ElementOfH0(cand)
            if regular_quotient(h, el.rep, el.degree) is not None:
                witness.elements.append(el)
                witness.certificates.append(_certificate(el, lo, True))
                stage = koszul(stage, [el])
                advanced = True
                break
        if not advanced:
            break
    return witness


def is_local_cm(A: DGRingRep) -> bool:
    """Local-Cohen-Macaulay at the irrelevant ideal: seq.depth = dim H^0.

    dim H^0 <= 0 (an Artinian or zero H^0) short-circuits to True.
    """
    d0 = A.h0.dim()
    return d0 <= 0 or seq_depth(A, A.irrelevant_ideal()) == d0


def has_constant_amplitude(A: DGRingRep) -> bool:
    """Supp(H^{inf}) = Spec(H^0): every annihilator generator of the bottom
    cohomology is nilpotent in H^0."""
    if A._constant_amplitude is None:
        lo = A.inf()
        A._constant_amplitude = lo == POS_INF or all(
            A.h0.is_nilpotent(g) for g in A.homology(lo).annihilator()
        )
    return A._constant_amplitude


def cm_certify(A: DGRingRep) -> str:
    """'false' if not local-CM; 'true' if local-CM with constant amplitude;
    'unknown' otherwise (localization at other primes is not mechanized)."""
    if not is_local_cm(A):
        return "false"
    if has_constant_amplitude(A):
        return "true"
    return "unknown"


class NonLocalMapError(ValueError):
    pass


def homotopy_fiber(source_vars, images, B: DGRingRep) -> DGRingRep:
    """Derived fiber of a map from the regular ring on source_vars into B.

    Each variable image must be a non-unit class of H^0(B) (zero is
    allowed); the fiber is the Koszul DG-ring on the images.
    """
    elems = [_as_element(e, B.base) for e in images]
    if len(elems) != len(source_vars):
        raise ValueError("one image per source variable required")
    for e in elems:
        red = B.h0.nf(e.rep)
        if not red.is_zero() and red.total_degree() == 0:
            raise NonLocalMapError(f"image {e.rep} is a unit in H^0")
    return koszul(B, elems)


def flatdim_over_regular(source_vars, images, B: DGRingRep) -> dict:
    """Flat dimension of B over the regular source, as amp of the homotopy
    fiber, together with the dimension-count right-hand side.

    The two sides are compared when B is CM-certified with constant
    amplitude, the hypotheses of the dimension formula.
    """
    fiber = homotopy_fiber(source_vars, images, B)
    flat = fiber.amp()
    dim_a = len(source_vars)
    dim_b = B.h0.dim()
    dim_fiber_ring = fiber.h0.dim()
    amp_b = B.amp()
    cm = cm_certify(B)
    const = has_constant_amplitude(B)
    rhs = None
    if dim_b != NEG_INF and dim_fiber_ring != NEG_INF and amp_b != NEG_INF:
        rhs = dim_a - dim_b + dim_fiber_ring + amp_b
    return {
        "flatdim": sentinel_json(flat),
        "rhs": None if rhs is None else sentinel_json(rhs),
        "dim_source": dim_a,
        "dim_h0_target": sentinel_json(dim_b),
        "dim_fiber_ring": sentinel_json(dim_fiber_ring),
        "amp_target": sentinel_json(amp_b),
        "cm_certified": cm,
        "constant_amplitude": const,
        "hypotheses_met": cm == "true" and const,
        "sides_equal": (rhs is not None and flat == rhs),
        "fiber_homology": table_json(fiber.homology_table()),
    }


def compute_invariants(
    A: DGRingRep,
    ideals: dict | None = None,
    with_witness: bool = True,
    budget: int = 400,
) -> dict:
    """The invariant report of A as a JSON-ready dict."""
    lo, hi, a = amp_profile(A)
    irr = A.irrelevant_ideal()
    report = {
        "inf": sentinel_json(lo),
        "sup": sentinel_json(hi),
        "amp": sentinel_json(a),
        "depth_at_irrelevant": sentinel_json(depth(A, irr)),
        "seq_depth_at_irrelevant": sentinel_json(seq_depth(A, irr)),
        "per_ideal": [],
        "witness": None,
    }
    for name, gens in (ideals or {}).items():
        elems = [_as_element(e, A.base) for e in gens]
        report["per_ideal"].append(
            {
                "ideal": name,
                "generators": [str(e.rep) for e in elems],
                "depth": sentinel_json(depth(A, elems)),
                "seq_depth": sentinel_json(seq_depth(A, elems)),
            }
        )
    if with_witness and not A.h0.is_trivial():
        report["witness"] = greedy_regular_sequence(A, irr, budget=budget).to_json()
    report.update(
        dim_h0=sentinel_json(A.h0.dim()),
        lcdim=sentinel_json(lcdim(A)),
        local_cm=is_local_cm(A),
        constant_amplitude=has_constant_amplitude(A),
        cm_certified=cm_certify(A),
        homology=table_json(A.homology_table()),
    )
    return report
