"""Named theorem-instance checks.

Every check returns a verdict record: verdict in {PASS, FAIL,
HYPOTHESIS-NOT-MET, UNKNOWN}, the self-contained statement it
instantiates, the hypotheses it validated, and both computed sides.
"""

from __future__ import annotations

from .complexes import Complex, euler_series, homology_hilbert_functions, truncation_oracle
from .dgring import (
    DGRingRep,
    RingMap,
    _as_element,
    base_change,
    dg_tensor,
    koszul,
    lift_independence_check,
    trivial_extension,
)
from .duality import gorenstein_dg_check, self_duality_check
from .hilbert import NEG_INF, table_json
from .invariants import (
    cm_certify,
    depth,
    flatdim_over_regular,
    greedy_regular_sequence,
    has_constant_amplitude,
    is_local_cm,
    seq_depth,
    sentinel_json,
)
from .modules import FPModule
from .parse import parse_poly
from .poly import column_to_vec, vec_to_column
from .rings import MAX_VARIABLES, quotient_ring_from_strings


# The euler_characteristic check compares one coefficient per degree up to
# its 'depth' (the suite uses 10); the comparison is linear in the depth.
MAX_EULER_DEPTH = 1000


class CheckInputError(ValueError):
    pass


def _is_text_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def _elements(args, key, ring, required=True):
    texts = args.get(key)
    if texts is None:
        if required:
            raise CheckInputError(f"check argument {key!r} is required")
        return None
    return [_as_element(t, ring) for t in texts]


def check_amp_koszul(A: DGRingRep, args, config) -> dict:
    statement = "amp(K(A;a)) == n - dim(H0(A)) + dim(H0(A)/I) - inf(A)"
    elems = _elements(args, "elements", A.base)
    cm = cm_certify(A)
    const = has_constant_amplitude(A)
    K = koszul(A, elems)
    direct = K.amp()
    n = len(elems)
    dim0 = A.h0.dim()
    dimq = K.h0.dim()
    lo = A.inf()
    formula = None
    if dimq != NEG_INF and dim0 != NEG_INF:
        formula = n - dim0 + dimq - lo
    record = {
        "statement": statement,
        "n": n,
        "amp_direct": sentinel_json(direct),
        "amp_formula": None if formula is None else sentinel_json(formula),
        "hypotheses": {"cm_certified": cm, "constant_amplitude": const},
    }
    if cm != "true":
        record["verdict"] = "HYPOTHESIS-NOT-MET"
    elif formula is not None and direct == formula:
        record["verdict"] = "PASS"
    else:
        record["verdict"] = "FAIL"
    return record


def check_seq_depth(A: DGRingRep, args, config) -> dict:
    statement = "seq.depth(I, A) == dim(H0(A)) - dim(H0(A)/I)"
    elems = _elements(args, "ideal", A.base)
    cm = cm_certify(A)
    lhs = seq_depth(A, elems)
    dim0 = A.h0.dim()
    dimq = koszul(A, elems).h0.dim()
    rhs = None if dimq == NEG_INF else dim0 - dimq
    witness = greedy_regular_sequence(A, elems, budget=config.budget)
    record = {
        "statement": statement,
        "seq_depth": sentinel_json(lhs),
        "dimension_difference": None if rhs is None else sentinel_json(rhs),
        "witness": witness.to_json(),
        "hypotheses": {"cm_certified": cm},
    }
    if cm != "true":
        record["verdict"] = "HYPOTHESIS-NOT-MET"
        return record
    ok = rhs is not None and lhs == rhs
    if ok and not witness.exhausted and len(witness) != lhs:
        ok = False
        record["witness_mismatch"] = True
    record["verdict"] = "PASS" if ok else "FAIL"
    return record


def check_depth_formula(A: DGRingRep, args, config) -> dict:
    statement = (
        "depth(I, A) == seq.depth(I, A) + inf(A), matched by the greedy "
        "witness, and independent of the generating set"
    )
    elems = _elements(args, "ideal", A.base)
    d = depth(A, elems)
    sd = seq_depth(A, elems)
    lo = A.inf()
    identity_ok = d == sd + lo
    witness = greedy_regular_sequence(A, elems, budget=config.budget)
    witness_ok = witness.exhausted or len(witness) == sd
    alt_results = []
    alt_ok = True
    for alt in args.get("alt_gens") or []:
        alt_elems = _elements({"g": alt}, "g", A.base)
        if koszul(A, alt_elems).h0 != koszul(A, elems).h0:
            raise CheckInputError("alternative generators span a different ideal")
        d_alt = depth(A, alt_elems)
        alt_results.append(
            {"generators": [str(e.rep) for e in alt_elems], "depth": sentinel_json(d_alt)}
        )
        alt_ok = alt_ok and d_alt == d
    record = {
        "statement": statement,
        "depth": sentinel_json(d),
        "seq_depth": sentinel_json(sd),
        "inf": sentinel_json(lo),
        "witness": witness.to_json(),
        "alternative_generating_sets": alt_results,
        "hypotheses": {},
    }
    record["verdict"] = "PASS" if (identity_ok and witness_ok and alt_ok) else "FAIL"
    return record


def check_self_duality(A: DGRingRep, args, config) -> dict:
    statement = "Hom(K, A) == K[-n] via an explicit chain isomorphism with entries +-1"
    elems = _elements(args, "elements", A.base)
    if A.lifts is None:
        raise CheckInputError("self-duality check needs a ring base")
    rep = self_duality_check(koszul(A, elems))
    rep["statement"] = statement
    rep["hypotheses"] = {"ring_base": True}
    rep["verdict"] = "PASS" if rep.pop("pass") else "FAIL"
    return rep


def check_base_change(A: DGRingRep, args, config) -> dict:
    statement = "K(A; a) (x)_A B == K(B; f(a)) on homology"
    elems = _elements(args, "elements", A.base)
    target_spec = args.get("target")
    if not (
        isinstance(target_spec, dict)
        and target_spec.get("vars")
        and _is_text_list(target_spec["vars"])
        and len(target_spec["vars"]) <= MAX_VARIABLES
        and _is_text_list(target_spec.get("ideal", []))
    ):
        raise CheckInputError(
            "base_change needs a target ring: an object with 'vars' (1 to "
            f"{MAX_VARIABLES} names) and 'ideal' lists"
        )
    target = quotient_ring_from_strings(
        target_spec["vars"], target_spec.get("ideal", []), A.base.field,
        A.base.poly_ring.degree_cap,
    )
    images = [parse_poly(t, target.poly_ring) for t in args.get("images") or []]
    f = RingMap(A.base, target, images)
    K = koszul(A, elems)
    pushed = base_change(K, f)
    # Independent side: map the Koszul complex entrywise and take homology.
    mapped_terms = {
        i: FPModule(target, t.twists)
        for i, t in K.underlying.terms.items()
    }
    mapped_diffs = {}
    for i, m in K.underlying.diffs.items():
        rows = K.underlying.terms[i + 1].rank
        mapped_diffs[i] = tuple(
            column_to_vec(map(f.apply, vec_to_column(col, A.base.poly_ring, rows)))
            for col in m
        )
    mapped = Complex(target, mapped_terms, mapped_diffs)
    ta = pushed.homology_table()
    tb = mapped.homology_table()
    equal = ta == tb
    return {
        "statement": statement,
        "verdict": "PASS" if equal else "FAIL",
        "hypotheses": {"ring_map_well_defined": f.is_well_defined()},
        "table_pushforward": table_json(ta),
        "table_tensored": table_json(tb),
    }


def check_lift_independence(A: DGRingRep, args, config) -> dict:
    statement = "Koszul homology is independent of the chosen lifts of the classes"
    elems = _elements(args, "elements", A.base)
    alts = _elements(args, "alternates", A.base)
    rep = lift_independence_check(A, elems, alts)
    rep["statement"] = statement
    rep["hypotheses"] = {"same_classes": True}
    rep["verdict"] = "PASS" if rep.pop("equal") else "FAIL"
    return rep


def check_composition(A: DGRingRep, args, config) -> dict:
    statement = "K(A;a) (x)_A K(A;b) == K(A;a,b) on homology"
    first = _elements(args, "first", A.base)
    second = _elements(args, "second", A.base)
    flat = koszul(A, first + second)
    iterated = koszul(koszul(A, first), second)
    # The flat table comes from the smallest model, the others from the
    # differentials of the complexes they name.
    t_flat = flat.homology_table()
    t_iter = iterated.underlying.homology_table()
    iter_ok = t_flat == t_iter
    tensor_ok = None
    if A.is_termwise_free():
        tensored = dg_tensor(koszul(A, first), koszul(A, second))
        tensor_ok = t_flat == tensored.underlying.homology_table()
    ok = iter_ok and tensor_ok in (True, None)
    return {
        "statement": statement,
        "verdict": "PASS" if ok else "FAIL",
        "iterated_equal": iter_ok,
        "tensor_equal": tensor_ok,
        "hypotheses": {},
        "table": table_json(t_flat),
    }


def check_gorenstein_transfer(A: DGRingRep, args, config) -> dict:
    statement = (
        "A Gorenstein iff K(A; a) Gorenstein, for classes inside the "
        "irrelevant ideal"
    )
    elems = _elements(args, "elements", A.base)
    if A.lifts is None:
        raise ValueError("expected a Koszul DG-ring over a ring")
    rep = gorenstein_dg_check(koszul(A, elems))
    ring_gor = rep["ring_gorenstein"]
    verdict = rep["verdict"]
    if ring_gor and verdict == "true":
        outcome = "PASS"
    elif not ring_gor and verdict == "false":
        outcome = "PASS"
    elif verdict == "unknown":
        outcome = "UNKNOWN"
    else:
        outcome = "FAIL"
    rep["statement"] = statement
    rep["hypotheses"] = {"classes_in_irrelevant_ideal": True}
    rep["gorenstein_verdict"] = verdict
    rep["verdict"] = outcome
    return rep


def _regular_source(args, check: str):
    """(source_vars, images) of the map from a regular ring into A."""
    source_vars = args.get("source_vars")
    images = args.get("images")
    if not (source_vars and _is_text_list(source_vars)) or images is None:
        raise CheckInputError(f"{check} needs source_vars (a list of names) and images")
    return source_vars, images


def check_miracle_flatness(A: DGRingRep, args, config) -> dict:
    statement = (
        "flatdim_A(B) == dim(A) - dim(H0(B)) + dim(H0(B)/m H0(B)) + amp(B)"
    )
    rep = flatdim_over_regular(*_regular_source(args, "miracle_flatness"), A)
    rep["statement"] = statement
    rep["hypotheses"] = {
        "target_cm_certified": rep["cm_certified"],
        "target_constant_amplitude": rep["constant_amplitude"],
    }
    if not rep["hypotheses_met"]:
        rep["verdict"] = "HYPOTHESIS-NOT-MET"
    else:
        rep["verdict"] = "PASS" if rep["sides_equal"] else "FAIL"
    return rep


def check_dgreg(A: DGRingRep, args, config) -> dict:
    statement = (
        "for a finite extension of a regular ring: flatdim == amp(B) iff "
        "B is Cohen-Macaulay"
    )
    rep = flatdim_over_regular(*_regular_source(args, "dgreg"), A)
    finite = rep["dim_fiber_ring"] == 0
    const = rep["constant_amplitude"]
    cm = rep["cm_certified"]
    record = {
        "statement": statement,
        "flatdim": rep["flatdim"],
        "amp_target": rep["amp_target"],
        "cm_certified": cm,
        "fiber_dimension": rep["dim_fiber_ring"],
        "hypotheses": {
            "finite_extension": finite,
            "constant_amplitude": const,
        },
    }
    if not finite or cm == "unknown":
        record["verdict"] = "HYPOTHESIS-NOT-MET"
        return record
    free_side = rep["flatdim"] == rep["amp_target"]
    cm_side = cm == "true"
    record["verdict"] = "PASS" if free_side == cm_side else "FAIL"
    return record


def check_counterexample_4_5(A: DGRingRep, args, config) -> dict:
    """The trivial-extension counterexample: a local-CM DG-ring without
    constant amplitude whose Koszul complex on y is not Cohen-Macaulay."""
    statement = (
        "for A = (k[x,y]/(xy)) semidirect (B/(x))[2]: A is local-CM, lacks "
        "constant amplitude, and K(A;y) has seq.depth 0 < dim H0 = 1"
    )
    field = A.base.field
    B = quotient_ring_from_strings(("x", "y"), ["x*y"], field, A.base.poly_ring.degree_cap)
    M = FPModule.quotient_by_ideal(B, [parse_poly("x", B.poly_ring)])
    ext = trivial_extension(B, M, 2)
    local_cm = is_local_cm(ext)
    const = has_constant_amplitude(ext)
    witness = greedy_regular_sequence(ext, ["y"], budget=config.budget)
    K = koszul(ext, ["y"])
    sd = seq_depth(K, K.irrelevant_ideal())
    dim0 = K.h0.dim()
    cm_k = cm_certify(K)
    table = table_json(K.homology_table())
    h_minus_1_zero = "-1" not in table
    note = (
        "computed H^-1(K) is nonzero (the kernel of y on the degree-0 part), "
        "while the trivial-extension model of K would have H^-1 = 0; the "
        "table is reported as computed by both the symbolic path and the "
        "truncation oracle"
    )
    oracle = truncation_oracle(K.underlying, 4)
    ghf = homology_hilbert_functions(K.underlying, 4)
    ok = (
        local_cm
        and not const
        and len(witness) >= 1
        and sd == 0
        and dim0 == 1
        and cm_k == "false"
    )
    return {
        "statement": statement,
        "verdict": "PASS" if ok else "FAIL",
        "hypotheses": {},
        "extension_local_cm": local_cm,
        "extension_constant_amplitude": const,
        "witness": witness.to_json(),
        "koszul_seq_depth": sentinel_json(sd),
        "koszul_dim_h0": sentinel_json(dim0),
        "koszul_cm_certified": cm_k,
        "koszul_homology": table,
        "h_minus_one_discrepancy": not h_minus_1_zero,
        "oracle_agrees": oracle == ghf,
        "discrepancy_note": note,
    }


def check_euler_characteristic(A: DGRingRep, args, config) -> dict:
    statement = "sum_i (-1)^i HS(H^i(K)) == HS(Q) * prod_j (1 - t^deg(a_j))"
    elems = _elements(args, "elements", A.base)
    if A.kind != "ring":
        raise CheckInputError("euler_characteristic runs over a ring base")
    depth_cap = args.get("depth", 10)
    if type(depth_cap) is not int or not 0 <= depth_cap <= MAX_EULER_DEPTH:
        raise CheckInputError(
            f"euler_characteristic 'depth' must be an integer from 0 to {MAX_EULER_DEPTH}"
        )
    K = koszul(A, elems)
    lhs = euler_series(K.underlying)
    rhs = A.base.hilbert_series()
    for e in elems:
        rhs = rhs - rhs.shift(e.degree)
    exact = lhs == rhs
    coeffs_equal = lhs.coefficients(depth_cap) == rhs.coefficients(depth_cap)
    return {
        "statement": statement,
        "verdict": "PASS" if (exact and coeffs_equal) else "FAIL",
        "hypotheses": {},
        "exact_equality": exact,
        "series_lhs": lhs.to_json(),
        "series_rhs": rhs.to_json(),
    }


_CHECKS = {
    "amp_koszul": check_amp_koszul,
    "seq_depth": check_seq_depth,
    "depth_formula": check_depth_formula,
    "self_duality": check_self_duality,
    "base_change": check_base_change,
    "lift_independence": check_lift_independence,
    "composition": check_composition,
    "gorenstein_transfer": check_gorenstein_transfer,
    "miracle_flatness": check_miracle_flatness,
    "dgreg": check_dgreg,
    "counterexample_4_5": check_counterexample_4_5,
    "euler_characteristic": check_euler_characteristic,
}
CHECK_NAMES = tuple(_CHECKS)


def run_check(name: str, A: DGRingRep, args: dict, config) -> dict:
    if not isinstance(name, str) or name not in _CHECKS:
        raise CheckInputError(f"unknown check {name!r}")
    record = _CHECKS[name](A, args, config)
    record["check"] = name
    return record
