"""The sparse echelon engine against a dense Gaussian elimination kept here
as the reference, over F_101, F_(2^31 - 1) and Q."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from dgkoszul import PrimeField, RationalField
from dgkoszul.linalg import Echelon

FIELDS = [PrimeField(101), PrimeField(2**31 - 1), RationalField()]


def _dense_rank(rows, ncols, p=None):
    """Rank by Gaussian elimination on a dense copy: with Fractions over Q,
    or with integers mod p."""
    norm = (lambda x: x % p) if p else Fraction
    A = [[norm(row.get(c, 0)) for c in range(ncols)] for row in rows]
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        scale = pow(A[rank][c], -1, p) if p else 1 / A[rank][c]
        A[rank] = [norm(x * scale) for x in A[rank]]
        for i in range(rank + 1, len(A)):
            f = A[i][c]
            if f:
                A[i] = [norm(x - f * y) for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


# (numerator, denominator): small values cancel often, large ones wrap mod p.
COEFFS = st.tuples(st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40)), st.integers(1, 7))


@st.composite
def sparse_rows(draw, fields=FIELDS):
    """A field, a column count and rows as {column: coeff} dicts.  Each row
    sums a list of (column, coeff) entries, so a column may repeat and an
    entry may cancel to zero; empty and repeated rows are mixed in."""
    field = draw(st.sampled_from(fields))
    ncols = draw(st.integers(1, 8))
    entry = st.tuples(st.integers(0, ncols - 1), COEFFS)
    rows = []
    for entries in draw(st.lists(st.lists(entry, max_size=6), max_size=10)):
        row = {}
        for c, (num, den) in entries:
            v = field.div(field.from_int(num), field.from_int(den))
            row[c] = field.add(row.get(c, field.zero), v)
        rows.append(row)
    if rows:
        repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [dict(rows[k]) for k in repeats]
    rows += [{}] * draw(st.integers(0, 2))
    order = draw(st.permutations(range(len(rows))))
    return field, ncols, [rows[k] for k in order]


def _p(field):
    return field.p if isinstance(field, PrimeField) else None


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
def test_echelon_rank_matches_dense_elimination(case):
    field, ncols, rows = case
    echelon = Echelon(field)
    before = [dict(row) for row in rows]
    for k, row in enumerate(rows):
        echelon.add(row)
        assert echelon.rank == _dense_rank(rows[: k + 1], ncols, _p(field))
    assert rows == before
    # A stored row keeps its own pivot: over F_p its entries are reduced,
    # over Q it is the primitive int row with a positive pivot.
    p = _p(field)
    for pivot, row in echelon.rows.items():
        assert min(row) == pivot and row[pivot]
        assert all(row.values())
        if p:
            assert all(0 < v < p for v in row.values())
        else:
            assert all(type(v) is int for v in row.values())
            assert gcd(*row.values()) == 1 and row[pivot] > 0


def _dense_normal_form(rows, ncols, probe):
    """Over Q: the probe minus the combination of the rows' reduced row
    echelon form that clears each of its pivot columns."""
    A = [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]
    pivots = []
    for c in range(ncols):
        piv = next((i for i in range(len(pivots), len(A)) if A[i][c]), None)
        if piv is None:
            continue
        r = len(pivots)
        A[r], A[piv] = A[piv], A[r]
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            f = A[i][c]
            if i != r and f:
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    out = [Fraction(probe.get(c, 0)) for c in range(ncols)]
    for r, c in enumerate(pivots):
        f = out[c]
        out = [x - f * y for x, y in zip(out, A[r])]
    return {c: x for c, x in enumerate(out) if x}


@settings(max_examples=200, deadline=None)
@given(sparse_rows(fields=FIELDS[2:]), st.data())
def test_remainder_over_q_is_the_exact_normal_form(case, data):
    # Entries with denominators up to 7 give stored pivots other than 1, so
    # the remainder divides by the scale it applied.
    field, ncols, rows = case
    entries = data.draw(st.lists(COEFFS, min_size=ncols, max_size=ncols))
    probe = {c: Fraction(num, den) for c, (num, den) in enumerate(entries)}
    echelon = Echelon(field)
    for row in rows:
        echelon.add(row)
    assert echelon.remainder(probe) == _dense_normal_form(rows, ncols, probe)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.data())
def test_remainder_has_no_pivot_and_differs_from_the_row_by_the_span(case, data):
    field, ncols, rows = case
    split = data.draw(st.integers(0, len(rows)))
    # a dense probe meets every pivot column that the echelon has
    entries = data.draw(st.lists(COEFFS, min_size=ncols, max_size=ncols))
    probe = {c: field.div(field.from_int(num), field.from_int(den)) for c, (num, den) in enumerate(entries)}
    echelon = Echelon(field)
    for row in rows[:split]:
        echelon.add(row)
    snapshot = {pivot: dict(row) for pivot, row in echelon.rows.items()}
    before = dict(probe)
    rest = echelon.remainder(probe)
    assert probe == before and echelon.rows == snapshot
    assert all(rest.values()) and not set(rest) & set(echelon.rows)
    difference = {c: field.sub(probe[c], rest.get(c, field.zero)) for c in range(ncols)}
    p = _p(field)
    assert _dense_rank(rows[:split] + [difference], ncols, p) == echelon.rank
    assert _dense_rank(rows[:split] + [rest], ncols, p) == _dense_rank(rows[:split] + [probe], ncols, p)


@settings(max_examples=200, deadline=None)
@given(sparse_rows(fields=FIELDS[:2]), st.data())
def test_unreduced_entries_over_a_prime_field_change_nothing(case, data):
    # Over F_p a row may hand in any int for its class mod p: negative,
    # above p^2, or a multiple of p where the entry is zero.
    field, ncols, rows = case
    p = field.p
    shift = st.integers(-2 * p, 2 * p)

    def unreduced(row):
        out = {c: v + data.draw(shift) * p for c, v in row.items()}
        for c in data.draw(st.lists(st.integers(0, ncols - 1), max_size=2)):
            out.setdefault(c, data.draw(shift) * p)
        return out

    reduced, lifted = Echelon(field), Echelon(field)
    for row in rows:
        reduced.add(row)
        lifted.add(unreduced(row))
        assert lifted.rows == reduced.rows
    entries = data.draw(st.lists(COEFFS, min_size=ncols, max_size=ncols))
    probe = {c: field.div(field.from_int(num), field.from_int(den)) for c, (num, den) in enumerate(entries)}
    assert reduced.remainder(unreduced(probe)) == reduced.remainder(probe)
