"""Exact dense Gaussian elimination helpers used across the library.

Everything here is O(n^3)-style reference machinery: generator
compression, rank factorizations and small determinants.  `rref`
clears a pivot column with one rank-1 update of the columns from the
pivot on, `det` row by row; one product is charged per entry of a row
that changes.
"""

from __future__ import annotations

import numpy as np

from .counting import MultCounter
from .errors import DimensionMismatchError
from .field import PrimeField


def rref(field: PrimeField, M: np.ndarray,
         counter: MultCounter | None = None):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    R = M.copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        # R[r, :c] is zero, so the scaling and the rank-1 update change,
        # and are charged for, columns c.. only (of the touched rows)
        inv = field.inv(int(R[r, c]), counter)
        R[r, c:] = field.vmul(R[r, c:], inv, counter)
        col = R[:, c].copy()
        col[r] = 0
        touched = np.count_nonzero(col)
        if touched:
            if counter is not None:
                counter.add(touched * (cols - c))
            R[:, c:] = (R[:, c:] - np.outer(col, R[r, c:])) % field.p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank(field: PrimeField, M: np.ndarray,
         counter: MultCounter | None = None) -> int:
    return len(rref(field, M, counter)[1])


def rank_factor(field: PrimeField, M: np.ndarray,
                counter: MultCounter | None = None):
    """Full-rank factorization M = C @ R with C = M[:, pivots], R = rref(M).

    An n x r matrix with r < n first has its last r rows reduced: if they
    have rank r, so has M, whose RREF is then I_r with pivots 0 .. r-1
    whatever its other rows, and (M, I_r) is returned for an r x r
    elimination instead of an n x r one.  The last rows, because the
    down-shifted Krylov columns of `structured.core_power` vanish in their
    first rows.  Otherwise M is reduced in full (at r = n the subset would
    be M itself, and a failed check would reduce it twice).
    """
    rows, cols = M.shape
    if cols < rows and len(rref(field, M[rows - cols:], counter)[1]) == cols:
        return M.copy(), np.eye(cols, dtype=field.dtype)
    R, pivots = rref(field, M, counter)
    C = M[:, pivots].copy()
    return C, R


def independent_rows(field: PrimeField, M: np.ndarray,
                     counter: MultCounter | None = None) -> list[int]:
    """Indices of a maximal set of linearly independent rows."""
    return rref(field, M.T.copy(), counter)[1]


def det(field: PrimeField, M: np.ndarray,
        counter: MultCounter | None = None) -> int:
    """Determinant by fraction-free-ish Gaussian elimination with pivoting."""
    A = M.copy()
    n = A.shape[0]
    if A.shape[1] != n:
        raise DimensionMismatchError("determinant of a non-square matrix")
    p = field.p
    d = 1
    for c in range(n):
        nz = np.nonzero(A[c:, c])[0]
        if len(nz) == 0:
            return 0
        i = c + int(nz[0])
        if i != c:
            A[[c, i]] = A[[i, c]]
            d = -d % p
        piv = int(A[c, c])
        d = d * piv % p
        if counter is not None:
            counter.add(1)
        inv = field.inv(piv, counter)
        for j in range(c + 1, n):
            if A[j, c] != 0:
                f = int(A[j, c]) * inv % p
                if counter is not None:
                    counter.add(1)
                A[j, c:] = field.submul(A[j, c:], f, A[c, c:], counter)
    return d
