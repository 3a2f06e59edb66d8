"""Dense brute-force reference implementations.

Validation backbone for the structured algebra and both annihilating
polynomial algorithms.  Everything here may be O(n^3) or worse and is
size-guarded; determinism matters more than speed, so nothing in this
module shares randomness with the algorithms under test.
"""

from __future__ import annotations

import numpy as np

from .counting import MultCounter
from .errors import DimensionMismatchError, GuardExceededError
from .field import PrimeField
from .linalg import rank as _rank
from .linalg import rank_factor
from .poly import Poly, poly_lcm
from .structured import THMatrix, ToeplitzCore

DENSE_GUARD = 256


class DenseMatrix:
    """Square grid of canonical residues."""

    __slots__ = ("field", "rows")

    def __init__(self, field: PrimeField, rows):
        mat = field.asvec(rows)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatchError("dense matrix must be square")
        self.field = field
        self.rows = mat

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def __repr__(self) -> str:
        return f"DenseMatrix(n={self.n}, p={self.field.p})"


def stein_displacement(A: DenseMatrix) -> DenseMatrix:
    """A - Z A Z^T."""
    shifted = A.field.zeros(A.rows.shape)
    shifted[1:, 1:] = A.rows[:-1, :-1]
    return DenseMatrix(A.field, (A.rows - shifted) % A.field.p)


def displacement_rank(A: DenseMatrix, counter: MultCounter | None = None) -> int:
    return _rank(A.field, stein_displacement(A).rows, counter)


def dense_to_structured(A: DenseMatrix,
                        counter: MultCounter | None = None) -> THMatrix:
    """Ingest an arbitrary matrix as a P-only core of width rank(D(A))."""
    disp = stein_displacement(A).rows
    G, R = rank_factor(A.field, disp, counter)
    core = ToeplitzCore(A.field, A.n, G, R.T.copy())
    return THMatrix(A.field, core, ToeplitzCore.zero(A.field, A.n))


def dense_charpoly(A: DenseMatrix, counter: MultCounter | None = None) -> Poly:
    """det(xI - A), monic of degree n.

    Similarity reduction to Hessenberg form (pivoting among nonzero
    subdiagonal candidates keeps every division safe), then the standard
    determinant recurrence on xI - H.
    """
    n = A.n
    if n > DENSE_GUARD:
        raise GuardExceededError(f"dense charpoly guarded at n <= {DENSE_GUARD}")
    field = A.field
    p = field.p
    H = A.rows.copy()
    for k in range(n - 2):
        nz = np.nonzero(H[k + 1:, k])[0]
        if len(nz) == 0:
            continue
        piv = k + 1 + int(nz[0])
        if piv != k + 1:
            H[[k + 1, piv]] = H[[piv, k + 1]]
            H[:, [k + 1, piv]] = H[:, [piv, k + 1]]
        inv = field.inv(int(H[k + 1, k]), counter)
        below = k + 2 + np.nonzero(H[k + 2:, k])[0]
        if len(below):
            f = field.vmul(H[below, k], inv)
            if counter is not None:
                counter.add(len(below) * (1 + (n - k)))
            H[below, k:] = field.submul(H[below, k:], f[:, None], H[k + 1, k:])
            # inverse similarity: column k+1 absorbs the f-weighted columns
            H[:, k + 1] = (H[:, k + 1] + field.matvec_dense(H[:, below], f, counter)) % p
    # p_k = (x - H[k-1,k-1]) p_{k-1}
    #       - sum_m H[k-m,k-1] (prod_j H[j,j-1]) p_{k-m}
    polys = [field.zeros(1)]
    polys[0][0] = 1
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = field.zeros(k + 1)
        cur[1:] = prev
        cur[:k] = field.submul(cur[:k], int(H[k - 1, k - 1]), prev, counter)
        prod = 1
        for m in range(2, k + 1):
            prod = prod * int(H[k - m + 1, k - m]) % p
            if counter is not None:
                counter.add(1)
            if prod == 0:
                break
            coef = int(H[k - m, k - 1]) * prod % p
            if counter is not None:
                counter.add(1)
            if coef:
                tail = polys[k - m]
                cur[:k - m + 1] = field.submul(cur[:k - m + 1], coef, tail, counter)
        polys.append(cur)
    return Poly(field, polys[n])


def _krylov_annihilator(A: DenseMatrix, start: int,
                        counter: MultCounter | None = None) -> Poly:
    """Monic minimal annihilator of the Krylov space of e_start."""
    field = A.field
    n = A.n
    p = field.p
    basis = []   # (pivot index, reduced vector, expression over powers)
    w = field.unit_vector(n, start)
    k = 0
    while True:
        v = w.copy()
        rep = field.zeros(k + 1)
        rep[k] = 1
        for piv, bv, brep in basis:
            c = int(v[piv])
            if c:
                v = field.submul(v, c, bv, counter)
                rep[:len(brep)] = field.submul(rep[:len(brep)], c, brep, counter)
        nz = np.nonzero(v)[0]
        if len(nz) == 0:
            return Poly(field, rep)
        piv = int(nz[0])
        inv = field.inv(int(v[piv]), counter)
        v = field.vmul(v, inv, counter)
        rep = field.vmul(rep, inv, counter)
        basis.append((piv, v, rep))
        w = field.matvec_dense(A.rows, w, counter)
        k += 1


def dense_minpoly(A: DenseMatrix, counter: MultCounter | None = None) -> Poly:
    """Deterministic minimal polynomial: lcm of the Krylov annihilators of
    all standard basis vectors (stops early once degree n is reached)."""
    n = A.n
    if n > DENSE_GUARD:
        raise GuardExceededError(f"dense minpoly guarded at n <= {DENSE_GUARD}")
    m = Poly.one(A.field)
    for i in range(n):
        m = poly_lcm(m, _krylov_annihilator(A, i, counter), counter)
        if m.degree == n:
            break
    return m


def exhaustive_lfsr(field: PrimeField, sequence, maxdeg: int) -> Poly | None:
    """Smallest-degree monic annihilator found by enumerating all monic
    polynomials of degree 0..maxdeg; None if the search space has none.

    Guarded at p**maxdeg <= 10**6 candidate tails.
    """
    if field.p ** maxdeg > 10 ** 6:
        raise GuardExceededError("exhaustive search space exceeds 10**6")
    s = np.asarray([int(x) % field.p for x in sequence], dtype=np.int64)
    L = len(s)
    p = field.p
    for d in range(maxdeg + 1):
        if L - d <= 0:
            # no constraints: the first candidate, x**d, annihilates vacuously
            return Poly.x_power(field, d)
        windows = np.stack([s[i:i + d + 1] for i in range(L - d)])
        if d == 0:
            if not windows.any():
                return Poly.one(field)
            continue
        count = p ** d
        idx = np.arange(count, dtype=np.int64)
        digits = (idx[:, None] // p ** np.arange(d, dtype=np.int64)[None, :]) % p
        resid = (digits @ windows[:, :d].T + windows[:, d][None, :]) % p
        hit = np.nonzero(~resid.any(axis=1))[0]
        if len(hit):
            tail = digits[int(hit[0])]
            return Poly(field, list(tail) + [1])
    return None
