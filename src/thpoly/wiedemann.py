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
paper's schedule, serves the scalar route only, since for T+H-like
inputs the power A^s loses its structure.  Its giant rows take the dense
B = A^s whenever that charges less than structured passes of B
(`_dense_giants`), so a Toeplitz-like minpoly at n = 256 charges 28.0M
by BSGS against 33.2M by the naive sequence.  Both routes are
Monte Carlo with cheap independent verification, f(A) b = 0 on random b
(`verify_annihilates`).  The trial vectors ride the sequence's Krylov
passes as extra block columns, some on the A^T chain, so verification
only finishes the powers the sequence did not reach: sequence and
certificate together take n + 1 structured passes for a naive minpoly
or a block charpoly, and for BSGS s - 1 fewer than with uncarried
trials.  Every residue, from the Krylov chains that `THMatrix._pass`
advances to the generator, its determinant and the certificates, is
int64 for every p: a naive sequence takes the terms of many passes in
one batched int64 product (`PrimeField.matmul_int64`), BSGS all its
giant rows in one, verification its coefficients times each held batch
of trial powers, and the order basis and the determinant update rows
with the field's exact elementwise products (`PrimeField.submul`).
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
from .structured import RECONSTRUCT_GUARD, THMatrix


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
class KrylovPrefix:
    """Powers of verification vectors B carried on a sequence's passes.

    powers[i] = [A^i B_A | (A^T)^i B_T] for i = 0 .. m, int64 for every p;
    the first `forward` columns (B_A) ride the A chain, the rest (B_T) the
    A^T chain.  With m = 0 it is B alone, `verify_annihilates`' own start.
    """

    powers: np.ndarray   # shape (m + 1, n, trials)
    forward: int

    @property
    def m(self) -> int:
        return self.powers.shape[0] - 1


@dataclass(frozen=True)
class BlockSequence:
    """Projected Krylov sequence S_i = U^T A^i V of beta x beta blocks,
    with the verification powers carried on its passes, if any."""

    field: PrimeField
    beta: int
    terms: np.ndarray    # shape (L, beta, beta)
    prefix: KrylovPrefix | None = None

    @property
    def L(self) -> int:
        return self.terms.shape[0]


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix with polynomial entries (rows of a generator).

    coeffs[i, j, t] is the coefficient of x**t in entry (i, j), an int64
    residue; the last axis has length max(row_degrees) + 1, and an
    entry of lower degree is padded with zeros.
    """

    field: PrimeField
    coeffs: np.ndarray      # shape (beta, beta, max row degree + 1)
    row_degrees: tuple

    @property
    def beta(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        """Largest degree of a nonzero entry, 0 if every entry is zero."""
        live = np.flatnonzero(np.any(self.coeffs != 0, axis=(0, 1)))
        return int(live[-1]) if live.size else 0


@dataclass(frozen=True)
class AnnihilatorReport:
    polynomial: Poly
    algorithm: str
    seed: int
    verified: bool
    field_mult_count: int


def structured_projectors(field: PrimeField, n: int, beta: int, seed: int):
    """Random n x beta projector blocks (U, V).

    Column j of each block is L(r) e_{j+1}, r shifted down j places, for
    its own uniform random r, so a block is not part of one Toeplitz
    matrix (with beta = 1 it is a dense random vector).  The paper's
    structured projections are ROADMAP item 6.
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


# Operands held for one batched product: a naive sequence's projection
# operands, or verification's trial powers.  A fixed budget keeps O(n beta)
# of them, not O(L n beta).  At 64 KB a block charpoly at n = 64, beta = 2
# peaked 63 KB above its per-term products (traced heap); at 32 KB, 6 KB.
_PROJECTION_BYTES = 1 << 15


def krylov_sequence_naive(A: THMatrix, U: np.ndarray, V: np.ndarray, L: int,
                          counter: MultCounter | None = None,
                          carry: np.ndarray | None = None) -> BlockSequence:
    """S_i = U^T A^i V from two Krylov chains (reference path).

    With V_i = A^i V and U_i = (A^T)^i U, S_{2i} = U_i^T V_i and
    S_{2i+1} = U_i^T V_{i+1}.  The chains are independent, so each step
    advances both with one pair pass (the last odd term only needs
    V_{i+1}, a pass of V alone): L-1 block products in ceil((L-1)/2)
    kernel passes.  Each step only stacks its projection operands
    [U_i | V_i | V_{i+1}]; once _PROJECTION_BYTES of them are held, one
    batched `PrimeField.matmul_int64` takes all their terms, charged as
    the beta x n x beta product of each term.

    `carry`, an n x t block of verification vectors, rides the m =
    (L-1)//2 pair passes: its first ceil(t/2) columns beside V, the rest
    beside U, charged as the extra block columns they are.  Their powers
    0 .. m come back as the sequence's `prefix`, one preallocated int64
    array of (m+1) n t entries, so `verify_annihilates` needs d - m
    passes, not d, for a degree-d candidate.
    """
    beta = _check_blocks(A, U, V)
    field, n = A.field, A.n
    prefix = None
    if carry is not None:
        forward = -(-carry.shape[1] // 2)
        prefix = _start_prefix(carry, (L - 1) // 2, forward)
        V = np.concatenate([V, prefix.powers[0, :, :forward]], axis=1)
        U = np.concatenate([U, prefix.powers[0, :, forward:]], axis=1)
    terms = np.zeros((L, beta, beta), dtype=np.int64)
    steps = -(-L // 2)
    per_step = 3 * n * beta * 8
    held = np.zeros((min(steps, max(1, _PROJECTION_BYTES // per_step)), n,
                     3 * beta), dtype=np.int64)       # [U_i | V_i | V_i+1]
    for i in range(steps):
        j = i % len(held)
        held[j, :, :beta] = U[:, :beta]
        held[j, :, beta:2 * beta] = V[:, :beta]
        if 2 * i + 2 < L:
            V, U = A._pass([V, U], 0, counter)
            if prefix is not None:
                prefix.powers[i + 1, :, :forward] = V[:, beta:]
                prefix.powers[i + 1, :, forward:] = U[:, beta:]
        elif 2 * i + 1 < L:
            V = A._pass([V[:, :beta]], 0, counter)[0]
        # for an odd L the last step's V_i+1 is V_i, its term unused
        held[j, :, 2 * beta:] = V[:, :beta]
        if j + 1 == len(held) or i + 1 == steps:
            # the terms 2 (i + 1 - g) .. 2 i + 1 of the g held steps
            g = j + 1
            first = 2 * (i + 1 - g)
            if counter is not None:
                counter.add((min(L, 2 * (i + 1)) - first) * beta * n * beta)
            S = field.matmul_int64(held[:g, :, :beta].swapaxes(1, 2),
                                   held[:g, :, beta:])
            terms[first:first + 2 * g] = S.reshape(g, beta, 2, beta).swapaxes(
                1, 2).reshape(2 * g, beta, beta)[:L - first]
    return BlockSequence(field, beta, terms, prefix)


def _start_prefix(carry: np.ndarray, m: int, forward: int) -> KrylovPrefix:
    powers = np.zeros((m + 1,) + carry.shape, dtype=np.int64)
    powers[0] = carry
    return KrylovPrefix(powers, forward)


def _dense_giants(B: THMatrix, beta: int, giants: int) -> bool:
    """Whether `bsgs_sequence` takes its giant rows against the dense B:
    when n <= RECONSTRUCT_GUARD and r n^2 + (giants - 1) beta n^2, the
    dense B and its rows, is strictly below (giants - 1) beta r 2 M(n),
    the passes of B, with r = B.alpha and M(n) = `conv_charge(n, n)`.  A
    tie, or a B of width 0, keeps the passes."""
    n, r, rows = B.n, B.alpha, (giants - 1) * beta
    return n <= RECONSTRUCT_GUARD and (
        r * n * n + rows * n * n < rows * r * 2 * B.field.conv_charge(n, n))


def bsgs_sequence(A: THMatrix, U: np.ndarray, V: np.ndarray, plan: BsgsPlan,
                  counter: MultCounter | None = None,
                  carry: np.ndarray | None = None) -> BlockSequence:
    """Same output as the naive path, scheduled as baby steps A^i V for
    i < s, one structured power B = A^s, and giant rows U^T B^j, all in
    one int64 product (`PrimeField.matmul_int64`) with the baby steps side
    by side, charged as the beta x n x beta product of each of the L terms
    kept.

    Each giant row after the first, W_j = W_(j-1) B, is either one pass
    of B's r = B.alpha generator columns, charged beta r 2 M(n), or one
    `matmul_int64` against the dense B (`THMatrix.reconstruct`, charged
    r n^2 once), charged beta n^2: over its ceil(L/s) - 1 rows the dense
    route totals r n^2 + (ceil(L/s) - 1) beta n^2.  `_dense_giants` picks
    it when that is strictly less.  A Toeplitz-like B has width up to
    r = (alpha + 1) s - 1, and at that width and the default stride
    s = ceil(sqrt(2n)) the passes cost more for every n up to
    RECONSTRUCT_GUARD: at n = 256, alpha = 2, the rows charge 5.9M, not
    23.7M.

    `carry`, an n x t block of verification vectors, rides all m = s - 1
    baby steps beside V; its powers come back as the sequence's `prefix`
    (see `krylov_sequence_naive`)."""
    beta = _check_blocks(A, U, V)
    if beta != plan.beta:
        raise ShapeMismatchError("plan block size differs from projector width")
    field, n = A.field, A.n
    s, L = plan.s, plan.L
    chain, prefix = V, None
    if carry is not None:
        prefix = _start_prefix(carry, s - 1, carry.shape[1])
        chain = np.concatenate([chain, prefix.powers[0]], axis=1)
    # babies[:, i beta:(i + 1) beta] = A^i V
    babies = np.zeros((n, s * beta), dtype=np.int64)
    babies[:, :beta] = V
    for i in range(1, s):
        chain = A._pass([chain], 0, counter)[0]
        babies[:, i * beta:(i + 1) * beta] = chain[:, :beta]
        if prefix is not None:
            prefix.powers[i] = chain[:, beta:]
    giants = -(-L // s)
    W = np.zeros((giants, beta, n), dtype=np.int64)     # W[j] = U^T B^j
    W[0] = U.T
    if giants > 1:
        B = A.power(s, counter)
        if _dense_giants(B, beta, giants):
            D = B.reconstruct(counter)
            for j in range(1, giants):
                W[j] = field.matmul_int64(W[j - 1], D, counter)
        else:
            for j in range(1, giants):
                W[j] = B._pass([W[j - 1].T], 1, counter)[0].T
    if counter is not None:
        counter.add(L * beta * n * beta)
    rows = field.matmul_int64(W.reshape(giants * beta, n), babies)
    terms = rows.reshape(giants, beta, s, beta).swapaxes(1, 2).reshape(
        giants * s, beta, beta)[:L]
    return BlockSequence(field, beta, terms, prefix)


def minimal_matrix_generator(seq: BlockSequence, dbound: int,
                             counter: MultCounter | None = None) -> PolyMatrix:
    """Row-reduced matrix polynomial F with sum_t F_t S_{i+t} = 0.

    Iterative order-basis computation on E = [S(x); -I] with the shift
    (0..0, 1..1): one order per step, one column pivot per residue column,
    pivot rows chosen by minimal shifted degree.  Each basis row is held
    beside its residue in one (2 beta, 3 beta, L + 2) coefficient array,
    so each pivot column is read from the array, one update touches only
    the rows the pivot cancels, and the pivot row is then multiplied by x
    in place.  The array is the only copy of the residues.  The
    top-block rows of smallest degree, reversed at their degree, form the
    generator.  For beta = 1 and a sequence long enough to certify
    minimality this equals the Berlekamp-Massey output exactly.
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
    E = field.zeros((m, m + beta, L + 2))         # [basis | residue] rows
    E[np.arange(m), np.arange(m), 0] = 1
    E[:beta, m:, :L] = np.transpose(seq.terms, (1, 2, 0))
    E[np.arange(beta, m), np.arange(m, m + beta), 0] = p - 1
    d = [0] * beta + [1] * beta                     # shifted row degrees
    degm = [0] * m                                  # support bound of the basis
    charge = 0
    for k in range(L):
        for c in range(beta):
            col = E[:, m + c, k].tolist()
            nz = [r for r in range(m) if col[r]]
            if not nz:
                continue
            piv = min(nz, key=d.__getitem__)
            inv = field.inv(col[piv], counter)
            rest = [r for r in nz if r != piv]
            if rest:
                charge += len(rest) * (1 + m * (degm[piv] + 1) + beta * (L - k))
                f = np.array([col[r] * inv % p for r in rest], dtype=E.dtype)
                E[rest] = field.submul(E[rest], f[:, None, None], E[piv])
                for r in rest:
                    degm[r] = max(degm[r], degm[piv])
            E[piv, :, 1:] = E[piv, :, :-1]
            E[piv, :, 0] = 0
            d[piv] += 1
            degm[piv] += 1
    if counter is not None:
        counter.add(charge)
    chosen = sorted(range(m), key=d.__getitem__)[:beta]
    degrees = tuple(d[i] for i in chosen)
    coeffs = field.zeros((beta, beta, max(degrees) + 1))
    for r, i in enumerate(chosen):
        delta = degrees[r]
        frow = E[i, :beta, delta::-1]              # f_t = u_{delta - t}
        lead = np.flatnonzero(frow[:, -1])
        if lead.size:
            scale = field.inv(int(frow[lead[0], -1]), counter)
            if scale != 1:
                frow = field.vmul(frow, scale, counter)
        coeffs[r, :, :delta + 1] = frow
    return PolyMatrix(field, coeffs, degrees)


def annihilates_sequence(F: PolyMatrix, seq: BlockSequence) -> bool:
    """Direct check of sum_t F_t S_{i+t} = 0 at every applicable offset."""
    width = F.coeffs.shape[2]
    flat = F.coeffs.transpose(0, 2, 1).reshape(F.beta, -1)   # [F_0 | F_1 | ...]
    return not any(np.any(seq.field.matmul(
        flat, seq.terms[i:i + width].reshape(-1, F.beta)))
        for i in range(seq.L - width + 1))


def polymat_det(F: PolyMatrix, counter: MultCounter | None = None) -> Poly:
    """Exact determinant, normalized monic, by interpolation from D + 1
    points, D the sum of the rows' largest entry degrees (>= deg det F).

    One Horner pass over the coefficient array, acc x + C_t taken as
    C_t - (-x) acc, evaluates all beta^2 entries at every point x; as for
    `Poly.eval_many`, a nonzero entry is charged its own degree times
    D + 1 products and a zero entry nothing.  One `linalg.det` call then
    eliminates the (D + 1, beta, beta) stack of point matrices, and
    `interpolate` recovers the determinant from its values at 0..D, whose
    divided-difference levels each have one denominator.
    """
    field = F.field
    p = field.p
    top = F.degree
    C = F.coeffs[:, :, :top + 1]
    degrees = np.where(C != 0, np.arange(top + 1), 0).max(axis=2)
    D = int(degrees.max(axis=1).sum())
    if p < D + 1:
        raise FieldTooSmallError(
            f"determinant needs {D + 1} evaluation points but p = {p}")
    if counter is not None:
        counter.add(int(degrees.sum()) * (D + 1))
    pts = np.arange(D + 1)
    acc = field.zeros((D + 1, F.beta, F.beta)) + C[:, :, top]
    for t in range(top - 1, -1, -1):
        acc = field.submul(C[:, :, t], -pts[:, None, None], acc)
    vals = dense_det(field, acc, counter)
    if not np.any(vals):
        raise SingularEverywhereError("determinant is identically zero")
    poly = interpolate(field, pts, vals, counter)
    return poly.monic(counter)


def verification_vectors(field: PrimeField, n: int, trials: int,
                         seed: int) -> np.ndarray:
    """The n x trials block of uniform, independent trial vectors b that
    `verify_annihilates` draws for `seed`, int64 residues for every p."""
    if trials < 1:
        raise ValueError("at least one trial required")
    rng = field.rng(seed)
    return rng.integers(0, field.p, size=(trials, n), dtype=np.int64).T


def verify_annihilates(A: THMatrix, f: Poly, trials: int, seed: int,
                       counter: MultCounter | None = None,
                       prefix: KrylovPrefix | None = None) -> bool:
    """Monte Carlo check of f(A) b = 0 on random b; false negatives are
    impossible, false accepts have probability at most p^-trials: each b
    is uniform and independent of f, so if f(A) != 0 then f(A) b = 0
    with probability p^-rank(f(A)) <= 1/p.  A trial carried on the A^T
    chain checks f(A^T) b = f(A)^T b = 0 instead, which is as strong:
    rank f(A^T) = rank f(A), and f(A^T) = 0 exactly when f(A) = 0.

    `prefix` holds powers 0 .. m of these trials' vectors, carried on the
    sequence's Krylov passes (`krylov_sequence_naive`, `bsgs_sequence`).
    With d = deg f and k = min(m, d), f(A) b = sum_i f_i A^i b is one int64
    product (`PrimeField.matmul_int64`) of (f_0 .. f_{k-1}) with the
    carried powers flattened to k x (n trials), plus one per held batch of
    the powers k .. d, which d - k passes continue from A^k b over only
    the sides that hold trials, A-side ones by A, A^T-side ones by A^T.
    A batch holds _PROJECTION_BYTES of powers, at least one.  Without a
    prefix (k = 0) every trial is A-side and the chain makes d passes.

    Each coefficient costs one product per trial entry, (d+1) n trials in
    all, and a pass is charged as `trials` single-vector matvecs.  With the
    k passes the sequence charged, an accepting run costs what checking
    each trial alone would (a rejecting one pays for every trial, not only
    up to the first failure); a candidate of degree d < m leaves (m - d)
    trials carried columns unread.
    """
    B = verification_vectors(A.field, A.n, trials, seed)
    if f.is_zero():
        return True
    if prefix is None:
        prefix = KrylovPrefix(B[None], trials)
    elif not np.array_equal(prefix.powers[0], B):
        raise ValueError("the prefix carries other vectors than these trials")
    field, d = A.field, int(f.degree)
    k = min(prefix.m, d)
    coeffs = f.coeffs[None]
    S = field.matmul_int64(coeffs[:, :k], prefix.powers[:k].reshape(k, B.size),
                           counter)[0]
    held = np.zeros((min(d + 1 - k, max(1, _PROJECTION_BYTES // (8 * B.size))),
                     B.size), dtype=np.int64)
    W, fwd = prefix.powers[k], prefix.forward
    for i in range(k, d + 1):
        if i > k:
            groups = [W[:, :fwd], W[:, fwd:]] if 0 < fwd < trials else [W]
            W = np.concatenate(A._pass(groups, 0 if fwd else 1, counter), axis=1)
        j = (i - k) % len(held)
        held[j] = W.reshape(-1)
        if j + 1 == len(held) or i == d:
            S = (S + field.matmul_int64(coeffs[:, i - j:i + 1], held[:j + 1],
                                        counter)[0]) % field.p
    return not np.any(S)


def minpoly(A: THMatrix, seed: int, mode: str = "bsgs",
            verify_trials: int = 2) -> AnnihilatorReport:
    """Monte Carlo minimal polynomial via the scalar projected sequence.

    With probability at least 1 - 4n/p the candidate equals the true
    minimal polynomial (standard analysis for random projections).  The
    verification vectors ride the sequence's passes (`verify_annihilates`):
    the naive route carries them on all n pair passes, so a solve makes
    n + 1 passes and verification none; BSGS carries them on its s - 1
    baby steps.  A candidate of degree d below the carried m (n, or s - 1)
    costs (m - d) * verify_trials more column products than a chain of d
    passes would.
    """
    if mode not in ("naive", "bsgs"):
        raise ValueError(f"unknown mode {mode!r}")
    counter = MultCounter()
    field = A.field
    n = A.n
    u, v = structured_projectors(field, n, 1, derive_seed(seed, "projectors"))
    L = 2 * n + 2
    verify_seed = derive_seed(seed, "verify")
    B = verification_vectors(field, n, verify_trials, verify_seed)
    if mode == "naive":
        seq = krylov_sequence_naive(A, u, v, L, counter, B)
    else:
        seq = bsgs_sequence(A, u, v, BsgsPlan.default(n, 1), counter, B)
    scalars = seq.terms[:, 0, 0]
    f = berlekamp_massey(field, scalars, counter)
    ok = verify_annihilates(A, f, verify_trials, verify_seed, counter,
                            seq.prefix)
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
    a 3-trial annihilation test, two trials carried beside V and one
    beside U on the ceil(n/beta) pair passes, so verification adds
    n - ceil(n/beta) passes, not n.
    """
    field = A.field
    n = A.n
    if field.p <= n + 1:
        raise FieldTooSmallError(f"need p > n + 1 = {n + 1}, got {field.p}")
    counter = MultCounter()
    U, V = structured_projectors(field, n, beta,
                                 derive_seed(seed, "projectors"))
    verify_seed = derive_seed(seed, "verify")
    B = verification_vectors(field, n, 3, verify_seed)
    seq = krylov_sequence_naive(A, U, V, 2 * math.ceil(n / beta) + 2, counter,
                                B)
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
    if not verify_annihilates(A, c, 3, verify_seed, counter, seq.prefix):
        raise NotGenericError(n, c, "annihilation certificate failed")
    return AnnihilatorReport(polynomial=c, algorithm="charpoly-block",
                             seed=seed, verified=True,
                             field_mult_count=counter.mults)
