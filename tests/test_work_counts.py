"""Deterministic work counts: what a result already known must not
recompute.  Each test wraps a function at every place the package binds
it and counts the calls."""

from __future__ import annotations

import functools

import pytest

from conftest import poly, ring
from dgkoszul import (
    FPModule,
    HilbertSeries,
    complexes,
    dg_from_ring,
    dgring,
    duality,
    gorenstein_dg_check,
    greedy_regular_sequence,
    invariants,
    koszul,
    modules,
    trivial_extension,
)
from dgkoszul import groebner as gb
from dgkoszul.checks import CheckInputError, run_check
from dgkoszul.jobs import RunConfig


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
    FPModule(ring("x", "y", "z", "w", ideal=ideal), twists).hilbert_series()
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


@pytest.mark.parametrize(
    "elements", [["x", "y", "z"], ["x", "x", "y", "z"]], ids=["too-few", "dependent"]
)
def test_koszul_homology_on_other_elements_reads_the_differentials(monkeypatch, elements):
    A = dg_from_ring(ring("x", "y", "z", "w", ideal=TWISTED_CUBIC))
    calls = _count(monkeypatch, "_image_series", complexes.Complex)
    koszul(A, elements).homology_table()
    assert calls[0] > 0


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
