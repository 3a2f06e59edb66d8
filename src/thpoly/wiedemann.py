"""Randomized annihilating-polynomial algorithms for structured matrices.

The scalar route projects the matrix to a length 2n+2 sequence
u^T A^i v, by default scheduled baby-step/giant-step (BSGS), and recovers
the minimal polynomial with Berlekamp-Massey.  The block route projects
to L = 2*ceil(n/beta)+2 blocks U^T A^i V of size beta x beta, read
two-sided as ((A^T)^j U)^T (A^i V): L-1 block products from two
independent Krylov chains, advanced together by one structured pass per
step.  It then computes a minimal matrix generating polynomial by an
iterative order-basis algorithm and takes its determinant; for generic
matrices that determinant is the characteristic polynomial.  BSGS, the
paper's schedule, serves the scalar route only: under the counter's
cubic matrix-product charge no stride s > 1 is cheaper than s = 1, and
for T+H-like inputs the power A^s loses its structure.  Both routes are
Monte Carlo with cheap independent verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import MultCounter
from .errors import (BadBlockSizeError, FieldTooSmallError,
                     InsufficientLengthError, NotGenericError,
                     ShapeMismatchError, SingularEverywhereError)
from .field import PrimeField, derive_seed
from .linalg import det as dense_det
from .poly import Poly, berlekamp_massey, interpolate
from .structured import THMatrix


@dataclass(frozen=True)
class BsgsPlan:
    """Baby-step/giant-step schedule: stride s covering L sequence terms."""

    beta: int
    s: int
    L: int

    def __post_init__(self):
        if self.beta < 1:
            raise BadBlockSizeError("block size must be at least 1")
        if self.L < 2:
            raise ValueError("sequence length must be at least 2")
        if not 1 <= self.s <= self.L:
            raise ValueError("stride must satisfy 1 <= s <= L")

    @classmethod
    def default(cls, n: int, beta: int) -> "BsgsPlan":
        L = 2 * math.ceil(n / beta) + 2
        s = min(math.ceil(math.sqrt(2 * n)), L)
        return cls(beta=beta, s=s, L=L)


@dataclass(frozen=True)
class BlockSequence:
    """Projected Krylov sequence S_i = U^T A^i V of beta x beta blocks."""

    field: PrimeField
    beta: int
    terms: np.ndarray    # shape (L, beta, beta)

    @property
    def L(self) -> int:
        return self.terms.shape[0]


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix with polynomial entries (rows of a generator)."""

    field: PrimeField
    entries: tuple          # beta x beta nested tuples of Poly
    row_degrees: tuple

    @property
    def beta(self) -> int:
        return len(self.entries)

    @property
    def degree(self) -> int:
        best = 0
        for row in self.entries:
            for e in row:
                if not e.is_zero():
                    best = max(best, int(e.degree))
        return best

    def coefficient(self, t: int) -> np.ndarray:
        """The beta x beta matrix of coefficients of x**t."""
        b = self.beta
        out = self.field.zeros((b, b))
        for i in range(b):
            for j in range(b):
                out[i, j] = self.entries[i][j].coeff(t)
        return out


@dataclass(frozen=True)
class AnnihilatorReport:
    polynomial: Poly
    algorithm: str
    seed: int
    verified: bool
    field_mult_count: int


def structured_projectors(field: PrimeField, n: int, beta: int, seed: int,
                          counter: MultCounter | None = None):
    """Random projector blocks drawn from the Toeplitz algebra.

    Column j of each block is L(r) e_{j+1} for a fresh random vector r,
    i.e. r shifted down j places; with beta = 1 these are plain dense
    random vectors.
    """
    if not 1 <= beta <= n:
        raise BadBlockSizeError(f"block size {beta} outside 1..{n}")
    rng = field.rng(seed)

    def block():
        cols = []
        for j in range(beta):
            r = field.rand_vec(rng, n)
            col = field.zeros(n)
            col[j:] = r[:n - j]
            cols.append(col)
        return np.stack(cols, axis=1)

    return block(), block()


def _check_blocks(A: THMatrix, U: np.ndarray, V: np.ndarray) -> int:
    if U.ndim != 2 or V.ndim != 2:
        raise ShapeMismatchError("projector blocks must be 2-D")
    if U.shape[0] != A.n or V.shape[0] != A.n:
        raise ShapeMismatchError("projector rows must match the matrix dimension")
    if U.shape[1] != V.shape[1]:
        raise ShapeMismatchError("projector blocks must have equal width")
    return U.shape[1]


def krylov_sequence_naive(A: THMatrix, U: np.ndarray, V: np.ndarray, L: int,
                          counter: MultCounter | None = None) -> BlockSequence:
    """S_i = U^T A^i V from two Krylov chains (reference path).

    With V_i = A^i V and U_i = (A^T)^i U, S_{2i} = U_i^T V_i and
    S_{2i+1} = U_i^T V_{i+1}.  The chains are independent, so each step
    advances both with one `THMatrix.matvec_pair` (the last odd term only
    needs V_{i+1}, a plain `matvec_block`): L-1 block products in
    ceil((L-1)/2) kernel passes, and only the current blocks are held.
    """
    beta = _check_blocks(A, U, V)
    field = A.field
    terms = np.zeros((L, beta, beta), dtype=field.dtype)
    for i in range(0, L, 2):
        Ut = U.T.copy()
        terms[i] = field.matmul(Ut, V, counter)
        if i + 1 == L:
            break
        if i + 2 < L:
            V, U = A.matvec_pair(V, U, counter)
        else:
            V = A.matvec_block(V, counter)
        terms[i + 1] = field.matmul(Ut, V, counter)
    return BlockSequence(field, beta, terms)


def bsgs_sequence(A: THMatrix, U: np.ndarray, V: np.ndarray, plan: BsgsPlan,
                  counter: MultCounter | None = None) -> BlockSequence:
    """Same output as the naive path, scheduled as baby steps A^i V for
    i < s, one structured power B = A^s, and giant rows U^T B^j."""
    beta = _check_blocks(A, U, V)
    if beta != plan.beta:
        raise ShapeMismatchError("plan block size differs from projector width")
    field = A.field
    s, L = plan.s, plan.L
    babies = [V.copy()]
    for _ in range(1, min(s, L)):
        babies.append(A.matvec_block(babies[-1], counter))
    giants = math.ceil(L / s)
    B = A.power(s, counter) if giants > 1 else None
    terms = np.zeros((L, beta, beta), dtype=field.dtype)
    W = U.copy()
    for j in range(giants):
        Wt = W.T.copy()
        for i in range(s):
            k = j * s + i
            if k >= L:
                break
            terms[k] = field.matmul(Wt, babies[i], counter)
        if (j + 1) * s < L:
            W = B.matvec_t_block(W, counter)
    return BlockSequence(field, beta, terms)


def _shift_row_by_x(block: np.ndarray) -> np.ndarray:
    out = np.zeros_like(block)
    out[:, 1:] = block[:, :-1]
    return out


def minimal_matrix_generator(seq: BlockSequence, dbound: int,
                             counter: MultCounter | None = None) -> PolyMatrix:
    """Row-reduced matrix polynomial F with sum_t F_t S_{i+t} = 0.

    Iterative order-basis computation on E = [S(x); -I] with the shift
    (0..0, 1..1): one order per step, one column pivot per residue column,
    pivot rows chosen by minimal shifted degree.  The top-block rows of
    smallest degree, reversed at their degree, form the generator.  For
    beta = 1 and a sequence long enough to certify minimality this equals
    the Berlekamp-Massey output exactly.
    """
    beta = seq.beta
    L = seq.L
    field = seq.field
    p = field.p
    if L < 2 * math.ceil(dbound / beta) + 1:
        raise InsufficientLengthError(
            f"need at least {2 * math.ceil(dbound / beta) + 1} terms to certify "
            f"degree {dbound} with block size {beta}, got {L}")
    m = 2 * beta
    sigma = L
    cap = sigma + 2
    M = np.zeros((m, m, cap), dtype=field.dtype)
    for i in range(m):
        M[i, i, 0] = 1
    R = np.zeros((m, beta, cap), dtype=field.dtype)
    R[:beta, :, :sigma] = np.transpose(seq.terms, (1, 2, 0))
    for j in range(beta):
        R[beta + j, j, 0] = p - 1
    d = [0] * beta + [1] * beta      # shifted row degrees
    degm = [0] * m                    # support bound for the M rows
    for k in range(sigma):
        for c in range(beta):
            nz = [i for i in range(m) if R[i, c, k] != 0]
            if not nz:
                continue
            piv = min(nz, key=lambda i: (d[i], i))
            inv = field.inv(int(R[piv, c, k]), counter)
            for i in nz:
                if i == piv:
                    continue
                f = int(R[i, c, k]) * inv % p
                if counter is not None:
                    counter.add(1 + m * (degm[piv] + 1) + beta * (sigma - k))
                M[i] = (M[i] - f * M[piv]) % p
                R[i] = (R[i] - f * R[piv]) % p
                degm[i] = max(degm[i], degm[piv])
            M[piv] = _shift_row_by_x(M[piv])
            R[piv] = _shift_row_by_x(R[piv])
            d[piv] += 1
            degm[piv] += 1
    chosen = sorted(range(m), key=lambda i: (d[i], i))[:beta]
    entries = []
    degrees = []
    for i in chosen:
        delta = d[i]
        u = M[i, :beta, :delta + 1]
        frow = u[:, ::-1]                       # f_t = u_{delta - t}
        lead = [int(frow[c, -1]) for c in range(beta)]
        scale = 1
        for v in lead:
            if v:
                scale = field.inv(v, counter)
                break
        row = []
        for c in range(beta):
            coeffs = frow[c]
            if scale != 1:
                coeffs = field.vmul(coeffs, scale, counter)
            row.append(Poly(field, coeffs))
        entries.append(tuple(row))
        degrees.append(delta)
    return PolyMatrix(field, tuple(entries), tuple(degrees))


def annihilates_sequence(F: PolyMatrix, seq: BlockSequence) -> bool:
    """Direct check of sum_t F_t S_{i+t} = 0 at every applicable offset."""
    field = seq.field
    dmax = max(F.row_degrees) if F.row_degrees else 0
    coeffs = [F.coefficient(t) for t in range(dmax + 1)]
    for i in range(seq.L - dmax):
        acc = field.zeros((F.beta, F.beta))
        for t, Ft in enumerate(coeffs):
            acc = (acc + field.matmul(Ft, seq.terms[i + t])) % field.p
        if np.any(acc != 0):
            return False
    return True


def polymat_det(F: PolyMatrix, counter: MultCounter | None = None) -> Poly:
    """Exact determinant by evaluation at beta*deg+1 points and
    interpolation, normalized monic."""
    field = F.field
    beta = F.beta
    D = beta * F.degree
    if field.p <= D + 1:
        raise FieldTooSmallError(
            f"determinant needs {D + 1} evaluation points but p = {field.p}")
    pts = list(range(D + 1))
    evals = [[F.entries[i][j].eval_many(pts, counter) for j in range(beta)]
             for i in range(beta)]
    vals = []
    for e, x in enumerate(pts):
        Mx = field.zeros((beta, beta))
        for i in range(beta):
            for j in range(beta):
                Mx[i, j] = evals[i][j][e]
        vals.append(dense_det(field, Mx, counter))
    if not any(vals):
        raise SingularEverywhereError("determinant is identically zero")
    poly = interpolate(field, pts, vals, counter)
    return poly.monic(counter)


def verify_annihilates(A: THMatrix, f: Poly, trials: int, seed: int,
                       counter: MultCounter | None = None) -> bool:
    """Monte Carlo check of f(A) b = 0 on random b; false negatives are
    impossible, false accepts have probability at most p^-trials: each b
    is uniform and independent of f, so if f(A) != 0 then f(A) b = 0
    with probability p^-rank(f(A)) <= 1/p.

    All trial vectors go through one block Horner pass; each step is
    charged as `trials` single-vector steps, so an accepting run costs
    exactly what a per-trial loop would (a rejecting one pays for every
    trial, not only up to the first failure).
    """
    if trials < 1:
        raise ValueError("at least one trial required")
    if f.is_zero():
        return True
    field = A.field
    rng = field.rng(seed)
    B = np.stack([field.rand_vec(rng, A.n) for _ in range(trials)], axis=1)
    W = field.vmul(B, f.leading(), counter)
    for c in f.coeffs[-2::-1]:
        W = (A.matvec_block(W, counter) + field.vmul(B, int(c), counter)) % field.p
    return not np.any(W != 0)


def minpoly(A: THMatrix, seed: int, mode: str = "bsgs",
            verify_trials: int = 2) -> AnnihilatorReport:
    """Monte Carlo minimal polynomial via the scalar projected sequence.

    With probability at least 1 - 4n/p the candidate equals the true
    minimal polynomial (standard analysis for random projections).
    """
    if mode not in ("naive", "bsgs"):
        raise ValueError(f"unknown mode {mode!r}")
    counter = MultCounter()
    field = A.field
    n = A.n
    u, v = structured_projectors(field, n, 1, derive_seed(seed, "projectors"),
                                 counter)
    L = 2 * n + 2
    if mode == "naive":
        seq = krylov_sequence_naive(A, u, v, L, counter)
    else:
        seq = bsgs_sequence(A, u, v, BsgsPlan.default(n, 1), counter)
    scalars = seq.terms[:, 0, 0]
    f = berlekamp_massey(field, scalars, counter)
    ok = verify_annihilates(A, f, verify_trials, derive_seed(seed, "verify"),
                            counter)
    return AnnihilatorReport(polynomial=f, algorithm=f"minpoly-{mode}",
                             seed=seed, verified=ok,
                             field_mult_count=counter.mults)


def charpoly_generic(A: THMatrix, beta: int, seed: int) -> AnnihilatorReport:
    """Characteristic polynomial of a generic structured matrix by block
    projection, minimal matrix generator, and determinant.

    The block sequence U^T A^i V, i < 2*ceil(n/beta)+2, comes from the
    two Krylov chains A^i V and (A^T)^i U of `krylov_sequence_naive`,
    never from a structured power of A.

    Raises NotGenericError carrying the partial divisor when the
    determinant degree falls short of n or a certificate fails; callers
    retry with a fresh seed or a larger block size.  Certificates on
    success: degree n, monic, x^{n-1} coefficient equal to -trace(A), and
    a 3-trial annihilation test.
    """
    field = A.field
    n = A.n
    if field.p <= n + 1:
        raise FieldTooSmallError(f"need p > n + 1 = {n + 1}, got {field.p}")
    if not 1 <= beta <= n:
        raise BadBlockSizeError(f"block size {beta} outside 1..{n}")
    counter = MultCounter()
    U, V = structured_projectors(field, n, beta,
                                 derive_seed(seed, "projectors"), counter)
    seq = krylov_sequence_naive(A, U, V, 2 * math.ceil(n / beta) + 2, counter)
    F = minimal_matrix_generator(seq, n, counter)
    try:
        c = polymat_det(F, counter)
    except SingularEverywhereError:
        raise NotGenericError(0, Poly.zero(field),
                              "generator determinant vanished") from None
    if c.degree != n:
        raise NotGenericError(int(c.degree) if not c.is_zero() else 0, c)
    tr = A.trace(counter)
    if int(c.coeffs[n - 1]) != (-tr) % field.p:
        raise NotGenericError(n, c, "trace certificate failed")
    if not verify_annihilates(A, c, 3, derive_seed(seed, "verify"), counter):
        raise NotGenericError(n, c, "annihilation certificate failed")
    return AnnihilatorReport(polynomial=c, algorithm="charpoly-block",
                             seed=seed, verified=True,
                             field_mult_count=counter.mults)
