"""Compact displacement-generator representation of structured matrices.

A Toeplitz-like core C is stored as a generator pair (G, H) of width
alpha with

    C - Z C Z^T = G H^T,          Z = down-shift (ones on the subdiagonal).

The displacement map is a bijection, and the core is recovered as

    C = sum_j L(g_j) U(h_j)

with L(g) lower-triangular Toeplitz (first column g) and U(h)
upper-triangular Toeplitz (first row h).  Each core matvec therefore
costs two convolutions per generator column.  A general matrix is stored
as A = P + J Q with two cores and J the index reversal; Toeplitz matrices
have Q = 0, Hankel matrices have P = 0.  Every block product, A V, A^T V
or both A V and A^T U, is one pass of `THMatrix._pass` (a core C is
applied as the Toeplitz-like matrix C + J 0): two kernel product steps,
whatever the generator width, batched over the input blocks, on generator
spectra transformed once and kept, run by the plan of the pass shape
(`kernel.pass_plan`).  The matrix lays its spectra out for the two stages
once, as views that every plan of its passes reads.  J is folded into
those spectra: conj(rfft(g)) is the spectrum of g's cyclic reversal, so
a conjugated g turns a product with g into a correlation, which gives
J L(g) u and U(g) (J x) without reversing an input or an output; with
FFT size N >= 2n - 1 the correlation does not alias, and the norms, so
the kernel's exactness bound, do not change.
"""

from __future__ import annotations

import numpy as np

from .counting import MultCounter
from .errors import (BadLengthError, CornerMismatchError,
                     DimensionMismatchError, FieldMismatchError,
                     LengthMismatchError, TooLargeError)
from .field import PrimeField
from .kernel import pass_plan
from .linalg import rank_factor

RECONSTRUCT_GUARD = 4096

KIND_TOEPLITZ = "toeplitz-like"
KIND_HANKEL = "hankel-like"
KIND_TH = "toeplitz+hankel-like"


def _down_block(field: PrimeField, V: np.ndarray) -> np.ndarray:
    out = field.zeros(V.shape)
    out[1:, :] = V[:-1, :]
    return out


def _up_block(field: PrimeField, V: np.ndarray) -> np.ndarray:
    out = field.zeros(V.shape)
    out[:-1, :] = V[1:, :]
    return out


def _toeplitz_like(core: "ToeplitzCore") -> "THMatrix":
    """C + J 0, the matrix that applies a core C with C's own spectra."""
    return THMatrix(core.field, core, ToeplitzCore.zero(core.field, core.n))


class ToeplitzCore:
    """Generators of the down-shift Stein displacement of a matrix C, and
    their cached spectra; C is applied as a Toeplitz-like `THMatrix`."""

    __slots__ = ("field", "n", "G", "H", "_spectra")

    def __init__(self, field: PrimeField, n: int, G, H):
        if n < 1:
            raise DimensionMismatchError("dimension must be at least 1")
        G, H = field.asvec(G), field.asvec(H)
        if G.ndim != 2 or H.ndim != 2:
            raise DimensionMismatchError("generators must be n x alpha arrays")
        if G.shape[0] != n or H.shape[0] != n:
            raise DimensionMismatchError("generator columns must have length n")
        if G.shape[1] != H.shape[1]:
            raise DimensionMismatchError("G and H must have equal width")
        self.field = field
        self.n = n
        self.G, self.H = G, H
        self.G.flags.writeable = False
        self.H.flags.writeable = False
        self._spectra = None

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "ToeplitzCore":
        return cls(field, n, field.zeros((n, 0)), field.zeros((n, 0)))

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "ToeplitzCore":
        e1 = field.unit_vector(n, 0)
        return cls(field, n, e1.reshape(n, 1), e1.reshape(n, 1))

    @property
    def width(self) -> int:
        return self.G.shape[1]

    def __repr__(self) -> str:
        return f"ToeplitzCore(n={self.n}, width={self.width}, p={self.field.p})"

    def spectra(self):
        """(S_H, S_G): limb spectra of the H and G columns for n x n kernel
        products (`PrimeField.fft_spectra`, columns padded to whole
        chunks), transformed on first use and kept.  Two arrays, not one
        stacked: a kept allocation twice the size raises glibc's dynamic
        mmap threshold when it is freed, and peak RSS with it (+0.5 MB on
        a Toeplitz-like minpoly at n = 256)."""
        if self._spectra is None:
            self._spectra = tuple(self.field.fft_spectra(X.T, self.n, self.n,
                                                         axis=0)
                                  for X in (self.H, self.G))
        return self._spectra

    def swapped(self) -> "ToeplitzCore":
        """Transpose: displacement of C^T is (G H^T)^T = H G^T."""
        return ToeplitzCore(self.field, self.n, self.H, self.G)

    def compressed(self, counter: MultCounter | None = None) -> "ToeplitzCore":
        G, H = compress_pair(self.field, self.G, self.H, counter)
        return ToeplitzCore(self.field, self.n, G, H)

    def dense(self, counter: MultCounter | None = None) -> np.ndarray:
        """Materialize C from its displacement D = G H^T: C[i, j] =
        D[i, j] + C[i-1, j-1], so each diagonal of C is the running sum of
        that diagonal of D; cost O(n^2 alpha)."""
        n = self.n
        if n > RECONSTRUCT_GUARD:
            raise TooLargeError(f"refusing to materialize n={n} > {RECONSTRUCT_GUARD}")
        p = self.field.p
        acc = self.field.matmul(self.G, self.H.T, counter)
        for i in range(1, n):
            acc[i, 1:] = (acc[i, 1:] + acc[i - 1, :-1]) % p
        return acc


def compress_pair(field: PrimeField, G: np.ndarray, H: np.ndarray,
                  counter: MultCounter | None = None):
    """Equivalent generator pair of width exactly rank(G H^T).

    Rank-factor G, fold the coefficient matrix into H, then repeat on the
    new H; two echelon passes of cost O(n alpha^2).  A factor of full
    column rank has the coefficient matrix I, so its fold is skipped, and
    `rank_factor` certifies it from alpha rows: a pair that is minimal
    already usually costs two alpha x alpha eliminations and no product.
    """
    if G.shape[1] == 0 or H.shape[1] == 0:
        n = G.shape[0]
        return field.zeros((n, 0)), field.zeros((n, 0))
    CG, RG = rank_factor(field, G, counter)          # G = CG @ RG
    if CG.shape[1] == 0:
        n = G.shape[0]
        return field.zeros((n, 0)), field.zeros((n, 0))
    H1 = H if CG.shape[1] == G.shape[1] else field.matmul(H, RG.T, counter)
    CH, RH = rank_factor(field, H1, counter)         # H1 = CH @ RH
    if CH.shape[1] == H1.shape[1]:
        return CG, CH
    return field.matmul(CG, RH.T, counter), CH


def core_multiply(A: ToeplitzCore, B: ToeplitzCore,
                  counter: MultCounter | None = None) -> ToeplitzCore:
    """Core of the product A B.

    Uses the product rule for the down-shift displacement:
        D(AB) = D(A) B + Z A Z^T D(B) - (Z A e_n)(e_n^T B Z^T),
    so the new generators are
        G = [G_A | Z A Z^T G_B | -Z A e_n],
        H = [B^T H_A | H_B | Z B^T e_n],
    compressed afterwards; the true width is at most a_A + a_B + 1.
    """
    if A.n != B.n:
        raise DimensionMismatchError("core dimensions differ")
    if A.field != B.field:
        raise FieldMismatchError("cores over different fields")
    field = A.field
    n = A.n
    if A.width == 0 or B.width == 0:
        return ToeplitzCore.zero(field, n)
    en = field.unit_vector(n, n - 1).reshape(n, 1)
    # A [Z^T G_B | e_n] and B^T [H_A | e_n], one pass each
    left = _toeplitz_like(A).matvec_block(
        np.concatenate([_up_block(field, B.G), en], axis=1), counter)
    right = _toeplitz_like(B).matvec_t_block(
        np.concatenate([A.H, en], axis=1), counter)
    mid = _down_block(field, left[:, :B.width])
    last_g = -_down_block(field, left[:, B.width:]) % field.p
    G = np.concatenate([A.G, mid, last_g], axis=1)
    H = np.concatenate([right[:, :A.width], B.H,
                        _down_block(field, right[:, A.width:])], axis=1)
    return ToeplitzCore(field, n, *compress_pair(field, G, H, counter))


def core_power(A: ToeplitzCore, s: int,
               counter: MultCounter | None = None) -> ToeplitzCore:
    """Core of A**s from the unrolled product rule.

    Unrolling D(A A^k) = D(A) A^k + M D(A^k) - (Z A e_n)(e_n^T A^k Z^T)
    with M = Z A Z^T gives
        D(A^s) = sum_{i<s} M^i G H^T A^(s-1-i)
                 - sum_{i<s-1} M^i (Z A e_n)(e_n^T A^(s-1-i) Z^T),
    so the generators come from two Krylov blocks of width alpha+1,
    M^i [G | Z A e_n] and (A^T)^k [H | e_n], advanced together by s-1
    `matvec_pair` passes (A on one block, A^T on the other), and one
    compression of width alpha s + s - 1, instead of a compressed core
    product per square-and-multiply step.  The first pass takes e_n
    beside Z^T G, so the corrections lag one pass: with y_0 = A e_n and
    y_(i+1) = A Z^T Z y_i, correction i is Z y_i = M^i Z A e_n.  The pair
    is usually minimal already, and then its compression costs two
    eliminations of width alpha s + s - 1 (see `compress_pair`).
    """
    if s < 1:
        raise ValueError("exponent must be positive")
    if s == 1 or A.width == 0:
        return A
    field = A.field
    n = A.n
    a = A.width
    en = field.unit_vector(n, n - 1).reshape(n, 1)
    # left[k] = [M^(k+1) G | Z y_k], right[k] = (A^T)^k [H | e_n]
    X = np.concatenate([_up_block(field, A.G), en], axis=1)
    left = []
    right = [np.concatenate([A.H, en], axis=1)]
    view = _toeplitz_like(A)
    for _ in range(s - 1):
        down, up = view.matvec_pair(X, right[-1], counter)
        left.append(_down_block(field, down))
        right.append(up)
        X = _up_block(field, left[-1])
    # term i pairs M^i G with (A^T)^(s-1-i) H; correction i < s-1 pairs
    # -Z y_i with Z (A^T)^(s-1-i) e_n
    G = [A.G] + [left[i][:, :a] for i in range(s - 1)]
    H = [right[s - 1 - i][:, :a] for i in range(s)]
    G += [-left[i][:, a:] % field.p for i in range(s - 1)]
    H += [_down_block(field, right[s - 1 - i][:, a:]) for i in range(s - 1)]
    G, H = compress_pair(field, np.concatenate(G, axis=1),
                         np.concatenate(H, axis=1), counter)
    return ToeplitzCore(field, n, G, H)


def flip_conjugate(core: ToeplitzCore,
                   counter: MultCounter | None = None) -> ToeplitzCore:
    """Core of J C J, using D_down(J C J) = J D_up(C) J.

    Conjugating D_down(C) = G H^T by Z, with Z^T Z = I - e_n e_n^T, gives
        C - Z^T C Z = -(Z^T G)(Z^T H)^T + e_n (C^T e_n)^T
                      + (C e_n - c_nn e_n) e_n^T,
    so C e_n and C^T e_n, one `matvec_pair` pass, yield generators of width
    alpha+2 for D_up(C); reversing the rows of both factors conjugates
    them by J.  The pair is compressed before the reversal, which commutes
    with it: unreversed, its e_n column is nonzero in the last rows, where
    `rank_factor`'s subset check looks.
    """
    field = core.field
    n = core.n
    if core.width == 0:
        return ToeplitzCore.zero(field, n)
    en = field.unit_vector(n, n - 1).reshape(n, 1)
    col, row = _toeplitz_like(core).matvec_pair(en, en, counter)
    col[n - 1, 0] = 0                           # C e_n - c_nn e_n
    G = np.concatenate([-_up_block(field, core.G) % field.p, en, col], axis=1)
    H = np.concatenate([_up_block(field, core.H), row, en], axis=1)
    G, H = compress_pair(field, G, H, counter)
    return ToeplitzCore(field, n, G[::-1], H[::-1])


def _core_concat(field: PrimeField, n: int, cores,
                 counter: MultCounter | None = None) -> ToeplitzCore:
    live = [c for c in cores if c.width > 0]
    if not live:
        return ToeplitzCore.zero(field, n)
    G = np.concatenate([c.G for c in live], axis=1)
    H = np.concatenate([c.H for c in live], axis=1)
    return ToeplitzCore(field, n, *compress_pair(field, G, H, counter))


class THMatrix:
    """Structured matrix A = P + J Q with Toeplitz-like cores P, Q."""

    __slots__ = ("field", "n", "P", "Q", "_spectra", "_layout")

    def __init__(self, field: PrimeField, P: ToeplitzCore, Q: ToeplitzCore):
        if P.n != Q.n:
            raise DimensionMismatchError("core dimensions differ")
        if P.field != field or Q.field != field:
            raise FieldMismatchError("cores over a different field")
        self.field = field
        self.n = P.n
        self.P = P
        self.Q = Q
        self._spectra = None
        self._layout = None

    @classmethod
    def zero(cls, field: PrimeField, n: int) -> "THMatrix":
        z = ToeplitzCore.zero(field, n)
        return cls(field, z, z)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "THMatrix":
        return cls(field, ToeplitzCore.identity(field, n),
                   ToeplitzCore.zero(field, n))

    @property
    def alpha(self) -> int:
        return self.P.width + self.Q.width

    @property
    def kind(self) -> str:
        if self.Q.width == 0:
            return KIND_TOEPLITZ
        if self.P.width == 0:
            return KIND_HANKEL
        return KIND_TH

    def __repr__(self) -> str:
        return (f"THMatrix(n={self.n}, alphaT={self.P.width}, "
                f"alphaH={self.Q.width}, p={self.field.p})")

    def _check(self, other: "THMatrix") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"dimensions {self.n} and {other.n} differ")
        if self.field != other.field:
            raise FieldMismatchError("matrices over different fields")

    # -- linear maps ----------------------------------------------------------

    def _column(self, v) -> np.ndarray:
        v = self.field.asvec(v)
        if len(v) != self.n:
            raise LengthMismatchError(f"vector length {len(v)} != {self.n}")
        return v.reshape(self.n, 1)

    def matvec(self, v, counter: MultCounter | None = None) -> np.ndarray:
        """A v, the width-1 case of `matvec_block`; cost O(alpha M(n))."""
        return self.matvec_block(self._column(v), counter)[:, 0]

    def matvec_t(self, v, counter: MultCounter | None = None) -> np.ndarray:
        """A^T v, the width-1 case of `matvec_t_block`."""
        return self.matvec_t_block(self._column(v), counter)[:, 0]

    def spectra(self):
        """(S_H, S_G) = limb spectra of [H_P | H_Q] and [G_P | conj G_Q],
        as `ToeplitzCore.spectra` lays out a core's: P's own when Q = 0,
        otherwise transformed from the stacked generators on first use
        and kept (conjugation folds J into Q's columns; see `_pass`)."""
        if self.Q.width == 0:
            return self.P.spectra()
        if self._spectra is None:
            a, n = self.P.width, self.n
            S_H, S_G = (self.field.fft_spectra(np.concatenate([X, Y], axis=1).T,
                                               n, n, axis=0)
                        for X, Y in ((self.P.H, self.Q.H), (self.P.G, self.Q.G)))
            np.conjugate(S_G[:, a:self.alpha], out=S_G[:, a:self.alpha])
            self._spectra = S_H, S_G
        return self._spectra

    def _pass(self, blocks, first, counter):
        """Products of A with a group of input blocks in one pass.

        A is sum_j L(g_j) U(h_j) over its alpha generator columns, P's
        and then Q's, whose J `spectra` folds in.  `blocks` are n x k_i
        input blocks; group i reads blocks[i] and writes A blocks[i] if
        first + i is 0, A^T blocks[i] if it is 1 (first + len(blocks) <=
        2).  Returns the n x k_i products, new int64 arrays: the one entry
        point of every block product, which the Krylov chains of
        `wiedemann` call directly.

        A product reads S_H in stage 1 and S_G in stage 2, a transposed one
        the other way round: C^T = sum_j L(h_j) U(g_j).  Stage 1 takes, for
        every column, the correlation of its first-stage generator with x,
        from the spectrum of rev(x): coefficients 0 .. n-1 are U(h) x
        reversed, or, for a conjugated column, U(g) (J x) as it stands.
        Stage 2 reverses the results of P's columns, multiplies each column
        by its second-stage generator and sums the group's columns: L(g) u
        for a plain column, and for a conjugated one the correlation of g
        with the stage-1 result, which is J L(g) u.  Both correlations are
        alias-free (see the module docstring).

        The pass runs the `kernel.PassPlan` of its direction, group count
        and widest block, which all matrices of the shape share, from
        `kernel.pass_plan`: two product steps, batched over the groups, and
        two transform steps (the input blocks and the stage-1 result).  The
        plan reads the matrix's `spectra` laid out for its product steps,
        views the first pass makes and every later one reuses: stage 1
        reads the first alpha columns and stage 2 all of them, whatever
        the direction, group count or block width.  A narrower group is
        zero-padded to the widest inside the pass, and the charge is two
        convolutions per generator and real block column of each group.
        """
        field, n, width = self.field, self.n, self.alpha
        for X in blocks:
            if X.shape[0] != n:
                raise LengthMismatchError(f"block rows {X.shape[0]} != {n}")
        widths = [X.shape[1] for X in blocks]
        k = max(widths)
        if width == 0 or k == 0:
            return [np.zeros((n, w), dtype=np.int64) for w in widths]
        if counter is not None:
            counter.add(sum(widths) * width * 2 * field.conv_charge(n, n))
        S = self.spectra()
        plan = pass_plan(field.p, n, width, S[0].shape[1], self.P.width,
                         len(blocks), k)
        if self._layout is None:
            # stage 1 of group i reads S_H if first + i is 0, S_G if it is
            # 1, and stage 2 the other
            self._layout = (plan.stage1.layout([X[:, :width, None] for X in S]),
                            plan.stage2.layout([X[:, None] for X in S[::-1]]))
        one, two = self._layout
        end = first + len(blocks)
        out = plan(blocks, (one[first:end], two[first:end]))
        return [o[:w].T for o, w in zip(out, widths)]

    def matvec_block(self, V: np.ndarray,
                     counter: MultCounter | None = None) -> np.ndarray:
        """A V = P V + J (Q V), both cores' columns in one `_pass`."""
        return self._pass([V], 0, counter)[0]

    def matvec_t_block(self, V: np.ndarray,
                       counter: MultCounter | None = None) -> np.ndarray:
        """A^T V = P^T V + Q^T (J V) in one `_pass`."""
        return self._pass([V], 1, counter)[0]

    def matvec_pair(self, V: np.ndarray, U: np.ndarray,
                    counter: MultCounter | None = None):
        """(A V, A^T U) in one `_pass`, for blocks of any widths
        (the narrower is zero-padded inside the pass); charged as
        `matvec_block(V)` plus `matvec_t_block(U)`."""
        return tuple(self._pass([V, U], 0, counter))

    # -- algebra ---------------------------------------------------------------

    def add(self, other: "THMatrix", counter: MultCounter | None = None) -> "THMatrix":
        self._check(other)
        return THMatrix(self.field,
                        _core_concat(self.field, self.n, [self.P, other.P], counter),
                        _core_concat(self.field, self.n, [self.Q, other.Q], counter))

    def neg(self) -> "THMatrix":
        f = self.field
        m = f.p - 1
        return THMatrix(f,
                        ToeplitzCore(f, self.n, self.P.G, f.vmul(self.P.H, m)),
                        ToeplitzCore(f, self.n, self.Q.G, f.vmul(self.Q.H, m)))

    def multiply(self, other: "THMatrix",
                 counter: MultCounter | None = None) -> "THMatrix":
        """Product via (P_A + J Q_A)(P_B + J Q_B):

        P = P_A P_B + (J Q_A J) Q_B,   Q = Q_A P_B + (J P_A J) Q_B.
        """
        self._check(other)
        field = self.field
        n = self.n
        p_terms = []
        q_terms = []
        if self.P.width and other.P.width:
            p_terms.append(core_multiply(self.P, other.P, counter))
        if self.Q.width and other.Q.width:
            p_terms.append(core_multiply(flip_conjugate(self.Q, counter),
                                         other.Q, counter))
        if self.Q.width and other.P.width:
            q_terms.append(core_multiply(self.Q, other.P, counter))
        if self.P.width and other.Q.width:
            q_terms.append(core_multiply(flip_conjugate(self.P, counter),
                                         other.Q, counter))
        return THMatrix(field,
                        _core_concat(field, n, p_terms, counter),
                        _core_concat(field, n, q_terms, counter))

    def power(self, k: int, counter: MultCounter | None = None) -> "THMatrix":
        """A**k.  Toeplitz-like matrices (Q = 0) use the unrolled product
        rule of `core_power`; otherwise square-and-multiply, compressing
        after every step."""
        if k < 1:
            raise ValueError("exponent must be positive")
        if self.Q.width == 0:
            return THMatrix(self.field, core_power(self.P, k, counter), self.Q)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result.multiply(base, counter)
            k >>= 1
            if k:
                base = base.multiply(base, counter)
        return result

    def transpose(self, counter: MultCounter | None = None) -> "THMatrix":
        """(P + J Q)^T = P^T + J (J Q^T J)."""
        Pt = self.P.swapped()
        if self.Q.width:
            Qt = flip_conjugate(self.Q.swapped(), counter)
        else:
            Qt = ToeplitzCore.zero(self.field, self.n)
        return THMatrix(self.field, Pt, Qt)

    def trace(self, counter: MultCounter | None = None) -> int:
        """Exact trace in O(alpha M(n)).

        tr L(g)U(h) = sum_d (n-d) g_d h_d; for the J part the diagonal of
        J L(g)U(h) picks the coefficients n-1-2i of g(x) h(x).
        """
        field, n = self.field, self.n
        total = 0
        if self.P.width:
            weights = field.asvec(np.arange(n, 0, -1))
            for j in range(self.P.width):
                gh = field.vmul(self.P.G[:, j], self.P.H[:, j], counter)
                total += field.dot(weights, gh, counter)
        for j in range(self.Q.width):
            c = field.conv(self.Q.G[:, j], self.Q.H[:, j], counter)
            total += sum(c[n - 1::-2].tolist())
        return total % field.p

    def reconstruct(self, counter: MultCounter | None = None) -> np.ndarray:
        """Dense P + J Q; the O(n^2 alpha) testing backbone."""
        if self.n > RECONSTRUCT_GUARD:
            raise TooLargeError(f"refusing to materialize n={self.n}")
        dense = self.P.dense(counter)
        if self.Q.width:
            dense = (dense + self.Q.dense(counter)[::-1, :]) % self.field.p
        return dense

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.neg())

    def __mul__(self, other):
        return self.multiply(other)

    def __pow__(self, k):
        return self.power(k)

    def __neg__(self):
        return self.neg()


# -- constructors ---------------------------------------------------------------


def from_toeplitz(field: PrimeField, col, row) -> THMatrix:
    """Toeplitz matrix T[i,j] = col[i-j] (i>=j) / row[j-i] (j>i).

    D(T) is supported on the first row and column, giving generators
    G = [e_1 | col - col_0 e_1], H = [row | e_1], width <= 2.
    """
    field_col = field.asvec(col)
    field_row = field.asvec(row)
    n = len(field_col)
    if len(field_row) != n:
        raise DimensionMismatchError("column and row lengths differ")
    if n < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if field_col[0] != field_row[0]:
        raise CornerMismatchError("col[0] and row[0] disagree")
    e1 = field.unit_vector(n, 0)
    c2 = field_col.copy()
    c2[0] = 0
    G = np.stack([e1, c2], axis=1)
    H = np.stack([field_row, e1], axis=1)
    core = ToeplitzCore(field, n, G, H).compressed()
    return THMatrix(field, core, ToeplitzCore.zero(field, n))


def from_hankel(field: PrimeField, antidiag_values) -> THMatrix:
    """Hankel matrix H[i,j] = v[i+j] from its 2n-1 antidiagonal values.

    Stored as J T with T = J H Toeplitz, i.e. a Q-only matrix.
    """
    v = field.asvec(antidiag_values)
    if len(v) % 2 == 0 or len(v) < 1:
        raise BadLengthError(f"need 2n-1 antidiagonal values, got {len(v)}")
    n = (len(v) + 1) // 2
    col = v[:n][::-1]
    row = v[n - 1:]
    t = from_toeplitz(field, col, row)
    return THMatrix(field, ToeplitzCore.zero(field, n), t.P)


def random_structured(field: PrimeField, n: int, alpha_t: int, alpha_h: int,
                      seed: int) -> THMatrix:
    """Uniform random generators, drawn in the order G_P, H_P, G_Q, H_Q."""
    if n < 1:
        raise DimensionMismatchError("dimension must be at least 1")
    if alpha_t < 0 or alpha_h < 0:
        raise ValueError("generator widths must be nonnegative")
    rng = field.rng(seed)
    gp = field.rand_vec(rng, (n, alpha_t))
    hp = field.rand_vec(rng, (n, alpha_t))
    gq = field.rand_vec(rng, (n, alpha_h))
    hq = field.rand_vec(rng, (n, alpha_h))
    return THMatrix(field, ToeplitzCore(field, n, gp, hp),
                    ToeplitzCore(field, n, gq, hq))
