"""Exact dense linear algebra over the coefficient field.

Used by the degree-truncation oracle, which must stay independent of the
Groebner path.  Prime fields go through numpy int64 arrays: PrimeField
keeps p below 2^31, so a product of two reduced entries is below 2^62 and
every intermediate fits in int64.  The rationals use Fraction rows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import PrimeField, RationalField


class _ModP:
    def __init__(self, p: int):
        self.p = p

    def rref(self, rows):
        """Reduced row echelon form.

        rows: list of int lists (or 2d array).  Returns (R, pivots) where R
        is a 2d int64 array of the nonzero echelon rows and pivots the list
        of their pivot column indices (strictly increasing).
        """
        p = self.p
        if len(rows) == 0:
            return np.zeros((0, 0), dtype=np.int64), []
        A = np.array(rows, dtype=np.int64) % p
        m, n = A.shape
        r = 0
        pivots = []
        for c in range(n):
            piv = None
            for i in range(r, m):
                if A[i, c]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                A[[r, piv], :] = A[[piv, r], :]
            A[r, :] = (A[r, :] * pow(int(A[r, c]), -1, p)) % p
            col = A[:, c].copy()
            col[r] = 0
            nz = np.nonzero(col)[0]
            if nz.size:
                A[nz, :] = (A[nz, :] - np.outer(col[nz], A[r, :])) % p
            pivots.append(c)
            r += 1
            if r == m:
                break
        return A[:r, :], pivots

    def rank(self, rows) -> int:
        _, pivots = self.rref(rows)
        return len(pivots)

    def reduce(self, vec, R, pivots):
        """Reduce vec modulo the row span of (R, pivots); exact remainder."""
        p = self.p
        v = np.array(vec, dtype=np.int64) % p
        for i, c in enumerate(pivots):
            if v[c]:
                v = (v - v[c] * R[i, :]) % p
        return v


class _Rational:
    def rref(self, rows):
        if len(rows) == 0:
            return [], []
        A = [[Fraction(x) for x in row] for row in rows]
        m, n = len(A), len(A[0])
        r = 0
        pivots = []
        for c in range(n):
            piv = None
            for i in range(r, m):
                if A[i][c] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            A[r], A[piv] = A[piv], A[r]
            inv = 1 / A[r][c]
            A[r] = [x * inv for x in A[r]]
            for i in range(m):
                if i != r and A[i][c] != 0:
                    f = A[i][c]
                    A[i] = [x - f * y for x, y in zip(A[i], A[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return A[:r], pivots

    def rank(self, rows) -> int:
        _, pivots = self.rref(rows)
        return len(pivots)

    def reduce(self, vec, R, pivots):
        v = [Fraction(x) for x in vec]
        for i, c in enumerate(pivots):
            if v[c] != 0:
                f = v[c]
                v = [x - f * y for x, y in zip(v, R[i])]
        return v


def linalg_for(field):
    if isinstance(field, PrimeField):
        return _ModP(field.p)
    if isinstance(field, RationalField):
        return _Rational()
    raise TypeError(f"unsupported field {field!r}")
