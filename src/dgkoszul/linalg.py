"""Exact sparse row echelon over the coefficient field, fraction-free.

Used by the degree-truncation oracle, which must stay independent of the
Groebner path.  Its matrices are Macaulay matrices (monomial multiples of
J's generators, of relation columns and of differential entries) with a
handful of nonzeros per row, so a row is a {column: coeff} dict.

No inverse is taken and no fraction is built while a row is reduced.  A
row enters normalized, as the field's `primitive` multiple of itself: over
F_p its entries reduced into (0, p), over Q the coprime int row with a
positive lead (its denominators cleared).  A row whose lead is no pivot is
stored as it entered, with no elimination step.  While a row is reduced,
an F_p entry may be an unreduced int, a sum of products that skips the
reduction; the field's `norm` reduces it only when it is read as a lead,
and `primitive` again when the row is stored.  A stored row P keeps
its own pivot lc, and the row's lead f is eliminated by cross-
multiplication, row <- lc*row - f*P, which skips the scaling when lc = 1:
Bareiss's integer-preserving elimination (Math. Comp. 22, 1968), with
stored rows made primitive in place of his division by the previous pivot.
The remainder by J's echelon is the oracle's normal form.  F_p and Q share
this one engine, and no fixed-width integer can overflow.

A Macaulay matrix's rank is decided by its rows' leads, since a row whose
lead is no pivot adds one to the rank as it is (F4's observation, Faugere
and Lachartre, PASCO 2010).  So a row may enter by its lead alone, with a
function that builds it: at a free lead the function is stored unbuilt,
and the row is built only when an elimination reads it as a pivot row.
"""

from __future__ import annotations


class Echelon:
    """The span of the rows added so far, in row echelon form.

    Rows are stored by pivot column, the least column of the row, each as
    the field's primitive multiple of the reduced row: every entry nonzero
    and reduced, the pivot kept as it is.  Over Q a stored row is the int
    row on its line whose entries are coprime and whose pivot is positive;
    over F_p its entries lie in (0, p).  A row enters in that form, so one
    whose lead is no pivot is stored as it entered.  `add` reduces any
    other row only until its lead is no pivot, which is all the rank and
    the pivots need; `remainder` reduces it fully.  `add_deferred` enters
    a row by its lead and a function that builds it: at a free lead
    `rows` holds that function until an elimination reads the pivot row,
    which is then built, normalized and checked against its lead.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field):
        self.field = field
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _build(self, lead, build) -> dict:
        """The deferred row at the pivot lead, built and normalized; raises
        if its least column is not the lead it entered at."""
        row = self.field.primitive(build())
        if not row or min(row) != lead:
            least = min(row, default=None)
            raise ValueError(f"a row entered at lead {lead} has least column {least}")
        return row

    def _lead(self, row: dict):
        """Eliminate pivots from the int row (consumed) in ascending order
        up to its first nonzero lead that is no pivot, and pop that lead.
        Returns (column, reduced coeff, scale): the row was multiplied by
        scale on the way, and the column is None (coeff 0) once the row is
        zero."""
        rows, norm = self.rows, self.field.norm
        get = row.get
        scale = 1
        while row:
            lead = min(row)
            factor = norm(row.pop(lead))
            if not factor:
                continue
            pivot_row = rows.get(lead)
            if pivot_row is None:
                return lead, factor, scale
            if type(pivot_row) is not dict:  # a deferred row, first read
                pivot_row = rows[lead] = self._build(lead, pivot_row)
            lc = pivot_row[lead]
            if lc != 1:
                for c, v in row.items():
                    row[c] = norm(v * lc)
                scale = norm(scale * lc)
            for c, v in pivot_row.items():
                row[c] = get(c, 0) - factor * v
            del row[lead]
        return None, 0, scale

    def remainder(self, row: dict) -> dict:
        """The row ({column: coeff}) fully reduced by the stored rows: it
        has no pivot column, its entries are nonzero, reduced and in
        ascending column order, and it differs from the row by an element
        of the span.  It reduces the primitive multiple u*row (u read off
        one entry), and divides a lead popped at the scale s, u times the
        multipliers applied so far, by s where s is not 1."""
        field = self.field
        work = field.primitive(row)
        if not work:
            return {}
        k = next(iter(work))
        scale = 1 if work[k] == row[k] else field.div(work[k], row[k])
        out = {}
        while True:
            lead, factor, s = self._lead(work)
            if s != 1:
                scale = field.norm(scale * s)
            if lead is None:
                return out
            out[lead] = factor if scale == 1 else field.div(factor, scale)

    def add(self, row: dict) -> None:
        """Add a row ({column: coeff}) to the span; the rank rises by one if
        the row is independent of the stored rows."""
        primitive = self.field.primitive
        row = primitive(row)
        if not row:
            return
        lead, factor, _ = self._lead(row)
        if lead is not None:
            row[lead] = factor
            self.rows[lead] = primitive(row)

    def add_deferred(self, lead, build) -> None:
        """Add the row that build() returns, whose least nonzero column is
        lead: at a free lead the rank rises by one and build is stored
        unbuilt, at a taken lead the row is built and added."""
        if lead in self.rows:
            self.add(build())
        else:
            self.rows[lead] = build
