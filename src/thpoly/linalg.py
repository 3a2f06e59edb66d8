"""Exact dense Gaussian elimination helpers used across the library.

Everything here is O(n^3)-style reference machinery: generator
compression, rank factorizations and small determinants.  `rref`
clears a pivot column with one rank-1 update of the columns from the
pivot on; `det` eliminates a whole stack of matrices column by column,
one update per column.  One product is charged per entry of a row that
changes.
"""

from __future__ import annotations

import numpy as np

from .counting import MultCounter, pow_cost
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
        counter: MultCounter | None = None) -> np.ndarray:
    """Determinants of an (m, b, b) stack of matrices, as m field elements.

    Gaussian elimination with inverses, one column at a time over the whole
    stack: each matrix pivots on the first nonzero entry at or below its
    diagonal (a row swap flips the sign), takes one inverse per distinct
    pivot value, and clears every row below the pivot in one update.  A
    matrix with no pivot in a column has determinant 0 and leaves the
    stack.  Each matrix is charged as if eliminated alone: a live one pays
    1 + an inversion per column, and each nonzero entry below a pivot in
    column c pays 1 + (b - c); the stack's total is added at once.
    """
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise DimensionMismatchError("determinants of a non-square stack")
    p = field.p
    b = M.shape[1]
    A = M.copy()
    live = np.arange(M.shape[0])
    d = field.zeros(len(live)) + 1
    inv_cost = pow_cost(p - 2)
    charge = 0
    for c in range(b):
        nz = A[:, c:, c] != 0
        has = nz.any(axis=1)
        if not has.all():
            A, live, d, nz = A[has], live[has], d[has], nz[has]
        k = np.arange(len(live))
        i = c + nz.argmax(axis=1)
        swap = i != c
        if swap.any():
            A[k, c], A[k, i] = A[k, i], A[k, c]
            d[swap] = -d[swap] % p
        piv = A[:, c, c]
        d = d * piv % p
        charge += (len(live) * (1 + inv_cost)
                   + (int(nz.sum()) - len(live)) * (1 + b - c))
        # column c below the pivot is never read again, so only the
        # columns after it are updated
        f = A[:, c + 1:, c] * field.inverses(piv)[:, None] % p
        A[:, c + 1:, c + 1:] = (A[:, c + 1:, c + 1:]
                                - f[:, :, None] * A[:, None, c, c + 1:]) % p
    if counter is not None:
        counter.add(charge)
    out = field.zeros(M.shape[0])
    out[live] = d
    return out
