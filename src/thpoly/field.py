"""Prime fields with canonical residues and vectorized exact arithmetic.

Residues are plain integers in [0, p).  Bulk data lives in numpy arrays:
int64 when p < 2**31 (so a product of two residues fits 62 bits), dtype
object with Python ints otherwise.  Every residue is below 2**62, so it
also fits int64 wherever a kernel needs it to.  `conv` goes through an
iterative radix-2 NTT when the modulus supports one, and otherwise through
`np.convolve` when its int64 sums cannot overflow; every other product
of polynomials, and every batched product of polynomial matrices, runs on
floating-point FFTs over b-bit limbs, exact by an a-priori rounding-error
bound.  That kernel has a transform step (`fft_spectra`), so an operand
applied many times is transformed once, and a product step
(`fft_product`), batched over a leading axis of independent products and
in int64 for every p; `conv_matmul`, the two in a row,
returns the field's dtype.  All paths return identical residues.
"""

from __future__ import annotations

import functools
import hashlib
import math

import numpy as np

from .counting import MultCounter, pow_cost
from .errors import DivisionByZeroError, NotPrimeError, TooLargeError

MAX_MODULUS = 1 << 62

# Residue products must stay below 2**62 for the int64 fast paths.
_INT64_LIMIT = 1 << 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Rounding error of one FFT product (Percival 2003, to first order): with
# unit roundoff 2**-53, a size-N FFT product of x and y is off by at most
# ||x||_2 ||y||_2 * 3 lg N * (2 + sqrt 5) * 2**-53 in every coefficient.
_FFT_ERROR = 3 * (2 + math.sqrt(5)) * 2.0 ** -53
# Error budget per output coefficient: np.rint is exact below 1/2, and the
# factor of two covers the higher-order terms the bound above drops.
_FFT_ROUNDING = 0.25
# Diagonal spectra per slab of `fft_product`, in bytes.
_SLAB_BYTES = 1 << 18


def _chunking(count: int, terms: int) -> tuple[int, int]:
    """(chunks, size): count terms split into the fewest chunks of at most
    `terms`, all of one size; a padded count chunks * size splits the same
    way again."""
    chunks = -(-count // terms)
    return chunks, -(-count // chunks) if chunks else 0


def _padded(shape, axis: int, terms: int) -> tuple[int, ...]:
    """`shape` with its term axis padded to whole chunks (`_chunking`)."""
    shape = list(shape)
    chunks, size = _chunking(shape[axis], terms)
    shape[axis] = chunks * size
    return tuple(shape)


def _fft_size(la: int, lb: int) -> int:
    """Power-of-two FFT size of a product of lengths la and lb."""
    return 1 << max(0, la + lb - 2).bit_length()


@functools.lru_cache(maxsize=256)
def _limb_plan(bits: int, la: int, lb: int) -> tuple[int, int, int]:
    """`PrimeField.fft_limbs` for residues of `bits` bits."""
    lg = max(1, _fft_size(la, lb).bit_length() - 1)
    for count in range(1, bits + 1):
        b = -(-bits // count)
        err = ((1 << b) - 1) ** 2 * math.sqrt(la * lb) * lg * _FFT_ERROR
        terms = int(_FFT_ROUNDING / (count * err))
        if terms >= 1:
            return b, count, terms
    raise TooLargeError(f"no exact FFT split for lengths {la}, {lb}")


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit input."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = _v2(d)
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def derive_seed(*parts) -> int:
    """Stable 64-bit sub-seed from a tuple of ints/strings/arrays."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, (int, np.integer)):
            h.update(int(part).to_bytes(16, "little", signed=True))
        elif isinstance(part, np.ndarray):
            h.update(str(part.shape).encode())
            if part.dtype == object:
                h.update(repr(part.tolist()).encode())
            else:
                h.update(np.ascontiguousarray(part).tobytes())
        else:
            raise TypeError(f"cannot hash {type(part)!r} into a seed")
    return int.from_bytes(h.digest(), "little")


class PrimeField:
    """Arithmetic context modulo a word-sized prime.

    Immutable after construction apart from an internal cache of NTT
    tables (write-once, derived data only, so concurrent use is safe).
    """

    __slots__ = ("p", "two_adicity", "ntt_capable", "ntt_root", "dtype",
                 "_inv_cost", "_ntt_tables")

    def __init__(self, p: int):
        p = int(p)
        if p <= 2 or p >= MAX_MODULUS:
            raise TooLargeError(f"modulus {p} outside the supported range (2, 2**62)")
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        self.p = p
        self.two_adicity = _v2(p - 1)
        self.ntt_capable = self.two_adicity >= 20
        self.ntt_root = self._find_root() if self.ntt_capable else None
        self.dtype = np.int64 if p < _INT64_LIMIT else object
        self._inv_cost = pow_cost(p - 2)
        self._ntt_tables = {}

    def _find_root(self) -> int:
        # w = g**((p-1)/2**t) has order exactly 2**t iff w**(2**(t-1)) == -1,
        # i.e. iff g is a quadratic nonresidue; one exists below any prime.
        t = self.two_adicity
        for g in range(2, 1 << 20):
            w = pow(g, (self.p - 1) >> t, self.p)
            if pow(w, 1 << (t - 1), self.p) == self.p - 1:
                return w
        raise AssertionError("no quadratic nonresidue found; modulus not prime?")

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    # -- scalar arithmetic ------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int, counter: MultCounter | None = None) -> int:
        if counter is not None:
            counter.add(1)
        return a * b % self.p

    def inv(self, a: int, counter: MultCounter | None = None) -> int:
        if a % self.p == 0:
            raise DivisionByZeroError("inverse of zero")
        if counter is not None:
            counter.add(self._inv_cost)
        return pow(a, -1, self.p)

    def pow(self, a: int, e: int, counter: MultCounter | None = None) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if counter is not None:
            counter.add(pow_cost(e))
        return pow(a, e, self.p)

    def inverses(self, values: np.ndarray,
                 counter: MultCounter | None = None) -> np.ndarray:
        """Elementwise inverses of a vector of residues, one inversion per
        distinct value (a single one when all are equal).

        Charged as Montgomery's batch inversion: one inversion plus
        3(len-1) products.
        """
        zero = np.flatnonzero(values == 0)
        if zero.size:
            raise DivisionByZeroError(f"zero entry at index {zero[0]}")
        n = len(values)
        if n == 0:
            return self.zeros(0)
        if counter is not None:
            counter.add(self._inv_cost + 3 * (n - 1))
        if np.all(values == values[0]):
            return self.zeros(n) + pow(int(values[0]), -1, self.p)
        vals = values.tolist()
        table = {v: pow(v, -1, self.p) for v in set(vals)}
        return np.array([table[v] for v in vals], dtype=self.dtype)

    # -- array plumbing ---------------------------------------------------

    def asvec(self, data) -> np.ndarray:
        if self.dtype is object:
            return np.array([int(x) % self.p for x in data], dtype=object)
        a = np.asarray(data, dtype=np.int64)
        return np.mod(a, self.p)

    def asmat(self, data) -> np.ndarray:
        if self.dtype is object:
            return np.array([[int(x) % self.p for x in row] for row in data],
                            dtype=object)
        a = np.asarray(data, dtype=np.int64)
        return np.mod(a, self.p)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def unit_vector(self, n: int, i: int) -> np.ndarray:
        e = self.zeros(n)
        e[i] = 1
        return e

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    def from_int64(self, a: np.ndarray) -> np.ndarray:
        """Int64 residues in the field's dtype."""
        return a if self.dtype is np.int64 else a.astype(object)

    def rand_vec(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.from_int64(rng.integers(0, self.p, size=n, dtype=np.int64))

    def rand_mat(self, rng: np.random.Generator, shape) -> np.ndarray:
        return self.from_int64(rng.integers(0, self.p, size=shape, dtype=np.int64))

    # -- vectorized arithmetic ---------------------------------------------

    def vmul(self, a, b, counter: MultCounter | None = None) -> np.ndarray:
        out = a * b % self.p
        if counter is not None:
            counter.add(out.size)
        return out

    def submul(self, y, f, x, counter: MultCounter | None = None) -> np.ndarray:
        """y - f*x elementwise (one product per entry of x)."""
        if counter is not None:
            counter.add(np.size(x))
        return (y - f * x) % self.p

    def dot(self, a, b, counter: MultCounter | None = None) -> int:
        if counter is not None:
            counter.add(len(a))
        if len(a) == 0:
            return 0
        # reduce each product before summing so int64 sums cannot overflow
        return int(((a * b) % self.p).sum() % self.p)

    def matmul(self, A, B, counter: MultCounter | None = None) -> np.ndarray:
        """Exact (a x k)(k x b) product."""
        k = A.shape[1]
        if counter is not None:
            counter.add(A.shape[0] * k * B.shape[1])
        if k == 0:
            return self.zeros((A.shape[0], B.shape[1]))
        p = self.p
        if self.dtype is object:
            return A.dot(B) % p
        if k * (p - 1) * (p - 1) < (1 << 63):
            return A @ B % p
        # split one operand in 16-bit halves: sums stay below 2**63
        hi = B >> 16
        lo = B & 0xFFFF
        return (((A @ hi % p) << 16) + (A @ lo % p)) % p

    def matvec_dense(self, A, v, counter: MultCounter | None = None) -> np.ndarray:
        return self.matmul(A, v.reshape(-1, 1), counter).reshape(-1)

    # -- convolution --------------------------------------------------------

    def _ntt_ok(self, out_len: int) -> bool:
        if not self.ntt_capable or self.p >= _INT64_LIMIT:
            return False
        size = 1 << max(0, out_len - 1).bit_length()
        return size <= (1 << self.two_adicity)

    def conv_charge(self, la: int, lb: int) -> int:
        """Canonical multiplication count of one convolution (both paths)."""
        if la == 0 or lb == 0:
            return 0
        out_len = la + lb - 1
        if self._ntt_ok(out_len):
            size = 1 << max(0, out_len - 1).bit_length()
            lg = size.bit_length() - 1
            return 3 * (size // 2) * lg + 2 * size
        return la * lb

    def conv(self, a, b, counter: MultCounter | None = None,
             method: str = "auto") -> np.ndarray:
        """Full product of coefficient vectors, length len(a)+len(b)-1."""
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return self.zeros(0)
        out_len = la + lb - 1
        if method == "auto":
            method = "ntt" if self._ntt_ok(out_len) else "basic"
        if method == "ntt":
            if not self._ntt_ok(out_len):
                raise ValueError("NTT path unavailable for this modulus/size")
            return self._conv_ntt(a, b, out_len, counter)
        if method != "basic":
            raise ValueError(f"unknown convolution method {method!r}")
        if counter is not None:
            counter.add(la * lb)
        if self.dtype is not object and min(la, lb) * (self.p - 1) ** 2 < (1 << 63):
            return np.convolve(a, b) % self.p
        return self.conv_matmul(np.reshape(a, (1, 1, la)),
                                np.reshape(b, (1, 1, lb)), out_len)[0, 0]

    def _conv_ntt(self, a, b, out_len, counter) -> np.ndarray:
        size = 1 << max(0, out_len - 1).bit_length()
        if counter is not None:
            lg = size.bit_length() - 1
            counter.add(3 * (size // 2) * lg + 2 * size)
        fa = self._ntt(self._pad(a, size), inverse=False)
        fb = self._ntt(self._pad(b, size), inverse=False)
        prod = fa * fb % self.p
        return self._ntt(prod, inverse=True)[:out_len]

    # -- exact floating-point FFT products -------------------------------------

    def fft_limbs(self, la: int, lb: int) -> tuple[int, int, int]:
        """(b, L, terms) for exact FFT products of lengths la and lb.

        Residues split into L limbs of b bits, so a limb vector x of length
        la has ||x||_2 <= (2**b - 1) sqrt(la).  One limb product then errs
        by at most e = (2**b - 1)**2 sqrt(la lb) * 3 lg N * (2 + sqrt 5) *
        2**-53 (lg N taken as at least 1), and an output limb diagonal of
        one term sums at most L limb products.  `terms` is how many such
        terms may be summed in the frequency domain before one inverse
        transform while terms * L * e stays below 1/4, so np.rint returns
        the exact integer (which is below 2**53, since |x.y| <= ||x|| ||y||).
        L is the smallest limb count that allows one term: for 31-bit
        primes 16-bit limbs (L = 2) up to n = 1719, for p = 2**61 - 1
        21-bit limbs (L = 3) up to n = 4, 16-bit (L = 4) up to n = 937
        and 13-bit (L = 5) beyond.  The plan depends on p only through its
        bit length, and is computed once per (bits, la, lb).
        """
        return _limb_plan((self.p - 1).bit_length(), la, lb)

    def fft_spectra(self, x, la: int, lb: int, axis: int) -> np.ndarray:
        """Transform step of the FFT product kernel.

        x holds residues (below 2**62, so int64) with coefficients on its
        last axis, at most max(la, lb) of them.  Returns the complex limb
        spectra, shape (L,) + x.shape[:-1] + (size // 2 + 1,), of the
        la x lb products of `fft_limbs`: residues split into L limbs of b
        bits, transformed with rfft at the FFT size.  The term axis `axis`
        (the summed axis of `fft_product`) is padded with zero terms to
        whole chunks.
        """
        x = np.asarray(x, dtype=np.int64)
        bits, count, terms = self.fft_limbs(la, lb)
        limbs = np.zeros((count,) + _padded(x.shape, axis, terms))
        fill = tuple(slice(0, m) for m in x.shape)
        mask = (1 << bits) - 1
        for l in range(count):
            np.bitwise_and(x >> (bits * l), mask, out=limbs[l][fill],
                           casting="unsafe")
        return np.fft.rfft(limbs, n=_fft_size(la, lb), axis=-1)

    def fft_product(self, fa: np.ndarray, fb: np.ndarray, la: int, lb: int,
                    out_len: int) -> np.ndarray:
        """Product step: residues of sum_t a[g, i, t] * b[g, t, j] for each
        g of a leading batch axis, first out_len coefficients, from
        `fft_spectra` fa (L, B, I, T, F) of a and fb (L, B, T, J, F) of b;
        returns (B, I, J, out_len) int64 for every p.

        The product is cyclic, of size N = `_fft_size(la, lb)` >= la + lb
        - 1, so its coefficients are the linear product's.  A spectrum may
        also be conjugated: conj(rfft(a)) is the spectrum of a's cyclic
        reversal a'[m] = a[-m mod N], which has a's norm, so the error
        bound below holds unchanged; coefficient m of a' b is then sum_t
        a[t] b[m + t], a correlation, which does not alias for m < lb
        since N >= la + lb - 1.

        The T terms fall into equal chunks of at most `terms`
        (`fft_spectra` pads T to fit).  One einsum per output limb diagonal
        d sums the limb pairs l + l' = d and the terms of each chunk in the
        frequency domain, for every batch and chunk at once; one irfft and
        np.rint then give each chunk's 2L - 1 diagonals exactly, a diagonal
        d standing for 2**(b d) times its value.  Each is below 2**47.4,
        since terms * L * (2**b - 1)**2 * sqrt(la lb) * 3 lg N *
        (2 + sqrt 5) * 2**-53 < 1/4.  Rows of a go through in slabs whose
        diagonal spectra fill about _SLAB_BYTES, which bounds the
        intermediates of products with many rows.
        """
        bits, count, terms = self.fft_limbs(la, lb)
        size = _fft_size(la, lb)
        B, I, T, F = fa.shape[1:]
        J = fb.shape[3]
        out = np.zeros((B, I, J, out_len), dtype=np.int64)
        if T == 0 or out.size == 0:
            return out
        C, t = _chunking(T, terms)
        fa = fa.reshape(count, B, I, C, t, F)
        fb = fb.reshape(count, B, C, t, J, F)
        diagonals = 2 * count - 1
        rows = max(1, _SLAB_BYTES // (diagonals * B * C * J * F * 16))
        for i in range(0, I, rows):
            slab = fa[:, :, i:i + rows]
            spec = np.empty((diagonals, C, B, slab.shape[2], J, F), dtype=complex)
            for d in range(diagonals):
                lo, hi = max(0, d - count + 1), min(d, count - 1) + 1
                # limbs l of a against limbs d - l of b, l = lo .. hi - 1
                np.einsum("lbictf,lbctjf->cbijf", slab[lo:hi],
                          fb[d - hi + 1:d - lo + 1][::-1], out=spec[d])
            raw = np.fft.irfft(spec, n=size, axis=-1)[..., :out_len]
            del spec
            out[:, i:i + rows] = self._recombine(
                np.rint(raw, out=raw).astype(np.int64), bits)
        return out

    def _recombine(self, digits: np.ndarray, bits: int) -> np.ndarray:
        """Int64 residues of sum_c sum_d digits[d, c] * 2**(b d), the chunk
        diagonals of `fft_product` (each below 2**47.4): chunks summed raw,
        2**14 at a time (so a residue plus such a sum is below 2**63), and
        reduced mod p (a lone chunk stays raw), then Horner steps acc * 2**b
        + diagonal mod p from the top, acc < p.  While (acc << b) +
        diagonal fits int64, as for every p < 2**31, a step is a shift, an
        add and a remainder (whole solves run ~7% faster than with the
        quotient step).  Above that, q = floor(acc * (2**b / p)) in float64
        is off by at most one (relative error below 2**-51, quotient below
        2**b), so (acc << b) - q p lies in [-p, 2p), exact in wrapping
        int64, and adding diagonal - p keeps it in int64 for the remainder."""
        p = self.p
        diag = digits[:, 0]
        for c in range(1, digits.shape[1], 1 << 14):
            diag = (diag + digits[:, c:c + (1 << 14)].sum(axis=1)) % p
        acc = diag[-1] % p
        if ((p - 1) << bits) + max(p, 1 << 48) <= 1 << 63:
            for d in range(len(diag) - 2, -1, -1):
                acc <<= bits
                acc += diag[d]
                acc %= p
            return acc
        scale = (1 << bits) / p
        low = diag[:-1] - p
        for d in range(len(diag) - 2, -1, -1):
            q = (acc * scale).astype(np.int64)
            acc <<= bits
            acc -= q * p
            acc += low[d]
            acc %= p
        return acc

    def conv_matmul(self, a: np.ndarray, b: np.ndarray,
                    out_len: int) -> np.ndarray:
        """Exact polynomial matrix product: a is (I, T, la) and b is
        (T, J, lb), coefficients on the last axis; returns the (I, J,
        out_len) residues, in the field's dtype, of the first out_len
        coefficients of sum_t a[i, t] * b[t, j].  One transform step per
        operand (`fft_spectra`) and one product step (`fft_product`);
        callers that apply one operand many times keep its spectra."""
        I, T, la = np.shape(a)
        J, lb = np.shape(b)[1:]
        if T == 0 or la == 0 or lb == 0:
            return self.zeros((I, J, out_len))
        fa = self.fft_spectra(a[None], la, lb, axis=2)
        fb = self.fft_spectra(b[None], la, lb, axis=1)
        return self.from_int64(self.fft_product(fa, fb, la, lb, out_len)[0])

    def _pad(self, a, size) -> np.ndarray:
        out = np.zeros(size, dtype=np.int64)
        out[:len(a)] = a
        return out

    # -- number-theoretic transform -----------------------------------------

    def _tables_for(self, size: int):
        cached = self._ntt_tables.get(size)
        if cached is not None:
            return cached
        p = self.p
        lg = size.bit_length() - 1
        root = pow(self.ntt_root, 1 << (self.two_adicity - lg), p)
        rev = np.zeros(size, dtype=np.int64)
        for i in range(1, size):
            rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (lg - 1))
        fwd, bwd = [], []
        for stage in range(1, lg + 1):
            half = 1 << (stage - 1)
            w = pow(root, size >> stage, p)
            tw = [1] * half
            for j in range(1, half):
                tw[j] = tw[j - 1] * w % p
            winv = pow(w, p - 2, p)
            ti = [1] * half
            for j in range(1, half):
                ti[j] = ti[j - 1] * winv % p
            fwd.append(np.asarray(tw, dtype=np.int64))
            bwd.append(np.asarray(ti, dtype=np.int64))
        n_inv = pow(size, p - 2, p)
        tables = (rev, fwd, bwd, n_inv)
        self._ntt_tables[size] = tables
        return tables

    def _ntt(self, a: np.ndarray, inverse: bool) -> np.ndarray:
        return self.ntt_many(a.reshape(1, -1), inverse)[0]

    def ntt_many(self, a: np.ndarray, inverse: bool) -> np.ndarray:
        """Transform each row of a (batch, size) int64 array in one pass."""
        batch, size = a.shape
        if size == 1:
            return a.copy()
        rev, fwd, bwd, n_inv = self._tables_for(size)
        p = self.p
        x = a[:, rev]
        stages = bwd if inverse else fwd
        for tw in stages:
            half = len(tw)
            x = x.reshape(batch, -1, 2 * half)
            lo = x[:, :, :half]
            hi = x[:, :, half:] * tw % p
            x = np.concatenate(((lo + hi) % p, (lo - hi) % p), axis=2)
        x = x.reshape(batch, size)
        if inverse:
            x = x * n_inv % p
        return x
