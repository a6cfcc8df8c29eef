"""Exact sparse row echelon over the coefficient field.

Used by the degree-truncation oracle, which must stay independent of the
Groebner path.  Its matrices are Macaulay matrices (monomial multiples of
J's generators, of relation columns and of differential entries) with a
handful of nonzeros per row, so a row is a {column: coeff} dict of nonzero
entries.  The remainder by J's echelon is the oracle's normal form.  The field
object does the arithmetic, so F_p and Q share one engine and no
fixed-width integer can overflow.
"""

from __future__ import annotations


class Echelon:
    """The span of the rows added so far, in row echelon form.

    Rows are stored by pivot column, the least column of the row, with the
    pivot scaled to 1.  Stored rows are never mutated, so a copy only
    copies the pivot table.
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

    def remainder(self, row: dict) -> dict:
        """The row ({column: coeff}, zeros allowed) fully reduced by the
        stored rows: it has no pivot column, and it differs from the row by
        an element of the span."""
        field, rows = self.field, self.rows
        sub, mul = field.sub, field.mul
        row = {c: v for c, v in row.items() if v}
        out = {}
        while row:
            lead = min(row)
            factor = row.pop(lead)
            pivot_row = rows.get(lead)
            if pivot_row is None:
                out[lead] = factor
                continue
            for c, v in pivot_row.items():
                if c == lead:
                    continue
                w = sub(row.get(c, 0), mul(factor, v))
                if w:
                    row[c] = w
                else:
                    del row[c]
        return out

    def add(self, row: dict) -> None:
        """Add a row ({column: coeff}, zeros allowed) to the span; the rank
        rises by one if the row is independent of the stored rows."""
        row = self.remainder(row)
        if row:
            lead = min(row)
            inv = self.field.inv(row[lead])
            self.rows[lead] = {c: self.field.mul(v, inv) for c, v in row.items()}
