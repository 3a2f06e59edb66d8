"""Exact dense Gaussian elimination helpers used across the library.

Everything here is O(n^3)-style reference machinery: generator
compression, rank factorizations and small determinants.  `rref`
clears a pivot column with one whole-matrix rank-1 update, `det` row by
row; one product is charged per entry of a row that changes.
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
        inv = field.inv(int(R[r, c]), counter)
        R[r] = field.vmul(R[r], inv, counter)
        col = R[:, c].copy()
        col[r] = 0
        touched = np.count_nonzero(col)
        if touched:
            if counter is not None:
                counter.add(touched * cols)
            # one rank-1 update of the whole matrix; rows with col 0 keep
            # their values, so only the touched rows are charged
            R = (R - np.outer(col, R[r])) % field.p
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank(field: PrimeField, M: np.ndarray,
         counter: MultCounter | None = None) -> int:
    return len(rref(field, M, counter)[1])


def rank_factor(field: PrimeField, M: np.ndarray,
                counter: MultCounter | None = None):
    """Full-rank factorization M = C @ R with C = M[:, pivots]."""
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
