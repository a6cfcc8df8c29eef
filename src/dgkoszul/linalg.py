"""Exact sparse row echelon over the coefficient field.

Used by the degree-truncation oracle, which must stay independent of the
Groebner path.  Its matrices are Macaulay matrices (monomial multiples of
J's generators, of relation columns and of differential entries) with a
handful of nonzeros per row, so a row is a {column: coeff} dict.  An input
row may hold zeros and, over F_p, unreduced ints (sums of products that
skip the reduction); the field's `norm` reduces an entry only when it is
read as a lead or stored.  The remainder by J's echelon is the oracle's
normal form.  The field object does the arithmetic, so F_p and Q share one
engine and no fixed-width integer can overflow.
"""

from __future__ import annotations


class Echelon:
    """The span of the rows added so far, in row echelon form.

    Rows are stored by pivot column, the least column of the row, with the
    pivot scaled to 1 and every entry nonzero and reduced.  `add` reduces a
    row only until its lead is no pivot, which is all the rank and the
    pivots need; `remainder` reduces it fully.  Stored rows are never
    mutated, so a copy only copies the pivot table.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows=None):
        self.field = field
        self.rows = {} if rows is None else rows

    @property
    def rank(self) -> int:
        return len(self.rows)

    def copy(self) -> "Echelon":
        return Echelon(self.field, dict(self.rows))

    def _lead(self, row: dict):
        """Eliminate pivots from the row (consumed) in ascending order up to
        its first nonzero lead that is no pivot, and pop that lead: (column,
        reduced coeff), or (None, 0) once the row is zero."""
        rows, norm = self.rows, self.field.norm
        get = row.get
        while row:
            lead = min(row)
            factor = norm(row.pop(lead))
            if not factor:
                continue
            pivot_row = rows.get(lead)
            if pivot_row is None:
                return lead, factor
            for c, v in pivot_row.items():
                row[c] = get(c, 0) - factor * v
            del row[lead]
        return None, 0

    def remainder(self, row: dict) -> dict:
        """The row ({column: coeff}) fully reduced by the stored rows: it
        has no pivot column, its entries are nonzero and reduced, and it
        differs from the row by an element of the span."""
        row = dict(row)
        out = {}
        lead, factor = self._lead(row)
        while lead is not None:
            out[lead] = factor
            lead, factor = self._lead(row)
        return out

    def add(self, row: dict) -> None:
        """Add a row ({column: coeff}) to the span; the rank rises by one if
        the row is independent of the stored rows."""
        row = dict(row)
        lead, factor = self._lead(row)
        if lead is None:
            return
        field = self.field
        inv, norm = field.inv(factor), field.norm
        stored = {lead: field.one}
        for c, v in row.items():
            v = norm(v * inv)
            if v:
                stored[c] = v
        self.rows[lead] = stored
