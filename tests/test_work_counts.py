"""Deterministic work counts: what a result already known must not
recompute.  Each test wraps a function at every place the package binds
it and counts the calls."""

from __future__ import annotations

import functools

import pytest

from conftest import poly, ring
from dgkoszul import FPModule, complexes, dg_from_ring, greedy_regular_sequence, invariants, modules
from dgkoszul import groebner as gb


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
