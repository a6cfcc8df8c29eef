"""Deterministic work counts: what a result already known must not
recompute.  Each test wraps a function at every place the package binds
it and counts the calls."""

from __future__ import annotations

import functools
from fractions import Fraction
from math import comb

import pytest

from conftest import poly, ring
from dgkoszul import (
    Complex,
    ElementOfH0,
    FPModule,
    HilbertSeries,
    PrimeField,
    QuotientRing,
    RationalField,
    complexes,
    dg_from_ring,
    dgring,
    duality,
    gorenstein_dg_check,
    greedy_regular_sequence,
    invariants,
    koszul,
    koszul_complex,
    modules,
    trivial_extension,
    truncation_oracle,
)
from dgkoszul import groebner as gb
from dgkoszul.linalg import Echelon
from dgkoszul.poly import vec_offset
from dgkoszul.checks import CheckInputError, run_check
from dgkoszul import jobs
from dgkoszul.jobs import RunConfig, run_job


def _count(monkeypatch, name, *namespaces):
    """Wrap the function `name` in each namespace; returns the call counter."""
    calls = [0]
    original = getattr(namespaces[0], name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    for namespace in namespaces:
        monkeypatch.setattr(namespace, name, counted)
    return calls


@pytest.mark.parametrize("twists", [(0,), (0, 1, 1), (-1, 2)])
def test_a_free_modules_series_builds_no_basis_beyond_the_rings(monkeypatch, twists):
    ideal = ["x*z - y^2", "y*w - z^2", "x*w - y*z"]
    calls = _count(monkeypatch, "buchberger", gb)
    ring("x", "y", "z", "w", ideal=ideal).hilbert_series()
    for_the_ring = calls[0]
    calls[0] = 0
    M = FPModule(ring("x", "y", "z", "w", ideal=ideal), twists)
    M.hilbert_series()
    assert not M.element_is_zero(M.basis_vector(0))
    assert calls[0] <= for_the_ring


def test_the_regular_sequence_search_builds_no_kernel(monkeypatch):
    A = dg_from_ring(ring("x", "y", "z", "w", ideal=["x*z - y^2", "y*w - z^2", "x*w - y*z"]))
    calls = _count(monkeypatch, "kernel", modules, complexes, invariants)
    witness = greedy_regular_sequence(A, A.irrelevant_ideal())
    assert len(witness) == 2
    assert calls[0] == 0


def test_a_cyclic_modules_annihilator_needs_no_syzygies(monkeypatch):
    Q = ring("x", "y", "z", ideal=["x*y"])
    M = FPModule.quotient_by_ideal(Q, [poly("x^2", Q), poly("y*z", Q)])
    calls = _count(monkeypatch, "syzygies", gb)
    assert [str(p) for p in M.annihilator()] == ["y*z", "x^2"]
    assert calls[0] == 0


def test_the_oracle_reduces_no_boundary_to_zero(monkeypatch):
    # Over k[x,y,z,w]/(xy - zw), K(x, y, z, w) has homology k in degree 0
    # and k(-2) in homological degree 1.  A row that adds nothing to the
    # rank is a homology class; a boundary, already in the span by
    # d o d = 0, must not be reduced at all.
    Q = ring("x", "y", "z", "w", ideal=["x*y - z*w"], field=PrimeField(101))
    K = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")])
    add = Echelon.add
    stalled = [0]

    def counted(self, row):
        rank = self.rank
        add(self, row)
        stalled[0] += self.rank == rank

    monkeypatch.setattr(Echelon, "add", counted)
    table = truncation_oracle(K, 8)
    assert stalled[0] <= sum(sum(row.values()) for row in table.values())


@pytest.mark.parametrize("field", [PrimeField(101), RationalField()], ids=["F_101", "Q"])
def test_a_row_with_a_free_lead_is_stored_without_elimination(monkeypatch, field):
    # A row enters Echelon normalized, so one whose lead is no pivot is
    # stored as it entered.  Of the oracle's 1,390 rows here, only the few
    # that meet a pivot are added, and each takes an elimination step.
    Q = ring("x", "y", "z", "w", ideal=["x*y - z*w"], field=field)
    K = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")])
    leads = _count(monkeypatch, "_lead", Echelon)
    add = Echelon.add
    eliminating = [0]

    def counted(self, row):
        before = leads[0]
        add(self, row)
        eliminating[0] += leads[0] > before

    monkeypatch.setattr(Echelon, "add", counted)
    truncation_oracle(K, 8)
    assert eliminating[0] <= 10


@pytest.mark.parametrize("field", [PrimeField(101), RationalField()], ids=["F_101", "Q"])
def test_the_oracle_adds_only_the_rows_whose_lead_is_taken(monkeypatch, field):
    # Every row enters by its lead; one at a free lead raises the rank
    # unbuilt, so only the 7 of 1,390 rows that meet a pivot are added.
    Q = ring("x", "y", "z", "w", ideal=["x*y - z*w"], field=field)
    K = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")])
    calls = _count(monkeypatch, "add", Echelon)
    truncation_oracle(K, 8)
    assert calls[0] <= 10


def test_the_oracle_reduces_only_the_normal_forms_its_rows_read(monkeypatch):
    # Over k[x,y,z,w]/(xy - zw) the pivot monomials of J_d are the multiples
    # of xy, C(d+1, 3) of them.  The Koszul differentials on the variables
    # read only a variable times a standard monomial, which is divisible by
    # xy but not by x^2y^2: C(d+1, 3) - C(d-1, 3) of them in degree d.
    Q = ring("x", "y", "z", "w", ideal=["x*y - z*w"], field=PrimeField(101))
    K = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")])
    calls = _count(monkeypatch, "remainder", Echelon)
    truncation_oracle(K, 8)
    assert calls[0] <= sum(comb(d + 1, 3) - comb(d - 1, 3) for d in range(2, 9))


def test_the_oracle_over_q_builds_no_fraction(monkeypatch):
    # J = (xy - zw) has unit pivots, so every column, normal form and row
    # of the oracle over Q is ints, and no Fraction is built.
    Q = ring("x", "y", "z", "w", ideal=["x*y - z*w"], field=RationalField())
    K = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")])
    calls = _count(monkeypatch, "__new__", Fraction)
    if hasattr(Fraction, "_from_coprime_ints"):  # newer Pythons' arithmetic
        make = Fraction._from_coprime_ints.__func__

        def counted(cls, numerator, denominator, /):
            calls[0] += 1
            return make(cls, numerator, denominator)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted))
    table = truncation_oracle(K, 8)
    assert calls[0] == 0
    assert table[-1][2] == 1 and table[0][0] == 1


def test_duality_and_the_gorenstein_check_dualize_the_resolution_once(monkeypatch):
    # The duality task reads the ring's dualizing complex directly and
    # through the Koszul DG-ring's dualizing module; the Gorenstein check
    # reads the latter again.  All of them share one dual of the resolution.
    job = {
        "vars": ["x", "y", "z"],
        "ideal": ["x*y - z^2"],
        "tasks": [
            {"task": "duality", "elements": ["x", "y"]},
            {"task": "check", "name": "gorenstein_transfer", "elements": ["x", "y"]},
        ],
    }
    calls = _count(monkeypatch, "hom_dual", Complex)
    report = run_job(job)
    assert [r["status"] for r in report["results"]] == ["ok", "ok"]
    assert calls[0] == 1


TWISTED_CUBIC = ["x*z - y^2", "y*w - z^2", "x*w - y*z"]


@pytest.mark.parametrize(
    "elements",
    [
        ["x", "y", "z", "w"],
        ["3*z", "x", "-w", "2*y"],
        ["x + 2*y - z", "y + w", "3*z - w", "x - y + z + w"],
    ],
    ids=["variables", "scaled-permutation", "general-basis"],
)
def test_koszul_homology_on_a_basis_of_linear_forms_builds_no_differential_basis(
    monkeypatch, elements
):
    # The twisted cubic: Betti 1, 3, 2 in degrees 0, 2, 3 (Eagon-Northcott).
    A = dg_from_ring(ring("x", "y", "z", "w", ideal=TWISTED_CUBIC))
    calls = _count(monkeypatch, "_image_series", complexes.Complex)
    assert koszul(A, elements).homology_table() == {
        -2: HilbertSeries({3: 2}, 0),
        -1: HilbertSeries({2: 3}, 0),
        0: HilbertSeries({0: 1}, 0),
    }
    assert calls[0] == 0


def test_a_koszul_task_on_a_basis_of_linear_forms_builds_no_koszul_complex(monkeypatch):
    # With the oracle off nothing reads the complex's terms or differentials.
    job = {
        "vars": ["x", "y", "z", "w"],
        "ideal": TWISTED_CUBIC,
        "tasks": [{"task": "koszul", "elements": ["x", "y", "z", "w"], "oracle_depth": 0}],
    }
    calls = _count(monkeypatch, "koszul_complex", complexes, dgring, duality)
    report = run_job(job)
    assert report["results"][0]["result"]["amp"] == 2
    assert calls[0] == 0


def test_a_regular_sequence_reads_its_homology_from_h0(monkeypatch):
    # x, w is a regular sequence on the twisted cubic's ring: H^0 = Q/(x, w)
    # is the only homology, and the regular-prefix test already computed
    # its Groebner basis.
    K = koszul(dg_from_ring(ring("x", "y", "z", "w", ideal=TWISTED_CUBIC)), ["x", "w"])
    table = K.homology_table()
    calls = _count(monkeypatch, "buchberger", gb)
    assert list(table) == [0] and K.h0.hilbert_series() == table[0]
    assert calls[0] == 0


def test_a_regular_prefix_extends_one_basis_and_builds_one_ring(monkeypatch):
    # x is regular on the twisted cubic's ring Q, and y is a zero divisor on
    # Q/(x) = k[y, z, w]/(y^2, yz, yw - z^2).  Each test extends the basis
    # before it, and only Q/(x) becomes a ring.
    Q = ring("x", "y", "z", "w", ideal=TWISTED_CUBIC)
    Q.hilbert_series()
    knowns = []
    buchberger = gb.buchberger

    def recording(*args, known=(), **kwargs):
        knowns.append(len(known))
        return buchberger(*args, known=known, **kwargs)

    monkeypatch.setattr(gb, "buchberger", recording)
    rings = _count(monkeypatch, "__init__", QuotientRing)
    prefix, k = dgring.regular_prefix(Q, [ElementOfH0(poly(v, Q)) for v in ("x", "y", "w")])
    assert (k, rings[0]) == (1, 1)
    assert knowns and 0 not in knowns
    assert prefix == ring("x", "y", "z", "w", ideal=[*TWISTED_CUBIC, "x"])


@pytest.mark.parametrize(
    "elements", [["x", "y", "z"], ["x", "x", "y", "z"]], ids=["too-few", "dependent"]
)
def test_koszul_homology_on_other_elements_reads_the_differentials(monkeypatch, elements):
    A = dg_from_ring(ring("x", "y", "z", "w", ideal=TWISTED_CUBIC))
    calls = _count(monkeypatch, "_image_series", complexes.Complex)
    koszul(A, elements).homology_table()
    assert calls[0] > 0


def test_min_gens_is_one_engine_call(monkeypatch):
    # Columns of degrees 1 to 3 in S(0) + S(-1) over the twisted cubic's
    # ring.  Modulo J, x*y and y^3 lie in (x, y), x*z e1 in (z e1), and
    # z^2 = y*w in (y).  The kept columns come by degree, and within a
    # degree in the order given.
    Q = ring("x", "y", "z", "w", ideal=TWISTED_CUBIC)
    texts = [("x*y", 0), ("y^3", 0), ("x", 0), ("z", 1), ("y", 0), ("x*z", 1), ("z^2", 0)]
    columns = [vec_offset(poly(t, Q).vec, i) for t, i in texts]
    Q.groebner()
    engine = _count(monkeypatch, "buchberger", gb)
    reductions = _count(monkeypatch, "normal_forms", gb)
    kept = modules.min_gens(columns, FPModule(Q, (0, 1)))
    assert kept == [columns[2], columns[4], columns[3]]
    assert (engine[0], reductions[0]) == (1, 0)


def test_the_resolution_of_a_rational_normal_curve_returns_few_syzygy_terms(monkeypatch):
    # The rational normal sextic, the 2x2 minors of the 2 x 6 Hankel matrix:
    # Betti 1, 15, 40, 45, 24, 5.  Counted: the vectors and terms that the
    # resolution's syzygies calls return.  The tag block is term over
    # position, and each stage's columns keep the engine's order.
    names = [f"x{i}" for i in range(7)]
    minors = [f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(6) for j in range(i + 1, 6)]
    Q = ring(*names, ideal=minors)
    returned = []
    syzygies = gb.syzygies

    def counted(*args):
        returned.append(syzygies(*args))
        return returned[-1]

    monkeypatch.setattr(gb, "syzygies", counted)
    complexes.free_resolution(FPModule(Q, (0,)))
    assert sum(map(len, returned)) <= 156
    assert sum(len(v) for syz in returned for v in syz) <= 1104


def test_a_subquotient_relates_only_its_minimal_generators(monkeypatch):
    # x + y is redundant beside x and y, so only x and y reach modulo: the
    # maximal ideal of k[x, y], with its one Koszul relation.
    Q = ring("x", "y")
    gens = [poly(t, Q).vec for t in ("x", "y", "x + y")]
    sizes = []
    modulo = modules.modulo

    def counted(gens, *args):
        sizes.append(len(gens))
        return modulo(gens, *args)

    monkeypatch.setattr(modules, "modulo", counted)
    m = modules.subquotient(FPModule(Q, (0,)), gens)
    assert sizes == [2]
    assert (m.twists, len(m.rels)) == ((1, 1), 1)


def test_a_homology_modules_series_builds_no_second_basis(monkeypatch):
    # H^{-1} of K(x, y, z, w) over the twisted cubic's ring is k(-2)^3,
    # minimized with the Groebner basis of its relations.
    Q = ring("x", "y", "z", "w", ideal=TWISTED_CUBIC)
    H = koszul_complex(Q, [poly(v, Q) for v in ("x", "y", "z", "w")]).homology(-1)
    calls = _count(monkeypatch, "buchberger", gb)
    assert H.hilbert_series() == HilbertSeries({2: 3}, 0)
    assert calls[0] == 0


def test_a_refused_duality_input_builds_nothing(monkeypatch):
    # Over a trivial extension the self-duality and Gorenstein checks refuse
    # before building K(A; elems), and the Gorenstein reader refuses a ring
    # before resolving it.
    B = ring("x", "y", ideal=["x*y"])
    ext = trivial_extension(B, FPModule(B, (0,)), 1)
    tensors = _count(monkeypatch, "tensor_complexes", complexes, dgring, duality)
    resolutions = _count(monkeypatch, "free_resolution", complexes)
    args = {"elements": ["x", "y"]}
    with pytest.raises(CheckInputError, match="^self-duality check needs a ring base$"):
        run_check("self_duality", ext, args, RunConfig())
    with pytest.raises(ValueError, match="^expected a Koszul DG-ring over a ring$"):
        run_check("gorenstein_transfer", ext, args, RunConfig())
    with pytest.raises(ValueError, match="^expected a Koszul DG-ring over a ring$"):
        gorenstein_dg_check(dg_from_ring(B))
    assert (tensors[0], resolutions[0]) == (0, 0)


def _pfaffians():
    """The five 4x4 Pfaffians of a generic 5x5 skew matrix: Gorenstein of
    codimension 3, Betti 1, 5, 5, 1."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    names = [f"a{i}{j}" for i, j in pairs]
    ideal = []
    for skip in range(5):
        i, j, k, l = (r for r in range(5) if r != skip)
        ideal.append(f"a{i}{j}*a{k}{l} - a{i}{k}*a{j}{l} + a{i}{l}*a{j}{k}")
    return names, ideal


def test_the_pfaffian_gorenstein_transfer_builds_nothing_over_s_above_the_rank_of_r(monkeypatch):
    # a01, a02 are S-regular, so the dual of K(Q; a01, a02) is R (x) S/(a01,
    # a02), of the rank of R, where Tot(K_S(a01, a02) (x) R) has 4 times it.
    names, ideal = _pfaffians()
    job = {
        "vars": names,
        "ideal": ideal,
        "tasks": [{"task": "check", "name": "gorenstein_transfer", "elements": ["a01", "a02"]}],
    }
    over_s = []
    init = Complex.__init__

    def recording(self, ring, terms, diffs):
        init(self, ring, terms, diffs)
        if not ring.j_gens:
            over_s.append(sum(t.rank for t in self.terms.values()))

    monkeypatch.setattr(Complex, "__init__", recording)
    report = run_job(job)
    assert report["results"][0]["result"]["verdict"] == "PASS"
    assert max(over_s) == 1 + 5 + 5 + 1


def test_an_all_variable_duality_task_dualizes_over_a_ring_where_every_variable_is_zero(
    monkeypatch,
):
    # The variables of the rational normal quintic's ambient ring are
    # S-regular, so its dual is built over S/(x0..x5) = k.
    names = [f"x{i}" for i in range(6)]
    minors = [f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(5) for j in range(i + 1, 5)]
    job = {"vars": names, "ideal": minors, "tasks": [{"task": "duality", "elements": names}]}
    duals = []
    dual = jobs.dualizing_of_koszul

    def recording(K):
        duals.append(dual(K))
        return duals[-1]

    monkeypatch.setattr(jobs, "dualizing_of_koszul", recording)
    report = run_job(job)
    assert report["results"][0]["result"]["amp_equal"] is True
    (D,) = duals
    assert all(D.ring.is_zero(D.ring.poly_ring.var(i)) for i in range(len(names)))


def test_an_invariants_task_on_a_koszul_dg_ring_builds_no_complex(monkeypatch):
    # DG 4: K(Q; x0, x1, x0 + x1) over the rational normal quartic Q.  Every
    # homology module (the greedy stages' bottom homology and the bottom
    # homology's annihilator) is read from a model.  (x0, x1) has height and
    # grade 1 in the Cohen-Macaulay Q of depth 2, so inf = -(3 - 1),
    # depth = 2 - 3 and seq_depth = dim H^0 = 1; H^{-2} = Ext^1_Q(Q/(x0, x1),
    # Q) is supported on all of Spec H^0, as (x0, x1) has one minimal prime.
    names = [f"x{i}" for i in range(5)]
    minors = [f"x{i}*x{j + 1} - x{j}*x{i + 1}" for i in range(4) for j in range(i + 1, 4)]
    job = {
        "vars": names,
        "ideal": minors,
        "dg": {"kind": "koszul", "elements": ["x0", "x1", "x0 + x1"]},
        "tasks": [{"task": "invariants"}],
    }
    calls = _count(monkeypatch, "tensor_complexes", complexes, dgring, duality)
    result = run_job(job)["results"][0]["result"]
    assert result["inf"] == -2
    assert (result["depth_at_irrelevant"], result["seq_depth_at_irrelevant"]) == (-1, 1)
    assert (result["local_cm"], result["cm_certified"]) == (True, "true")
    assert calls[0] == 0
