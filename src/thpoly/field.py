"""Prime fields with canonical residues and vectorized exact arithmetic.

Residues are integers in [0, p), p < 2**62, held in int64 numpy arrays
for every p.  How two of them multiply exactly is decided here alone
(`_product`, behind `vmul` and `submul`): below 2**31 as a * b, above it
by float64 quotient steps on 31-bit halves (Dumas-Giorgi-Pernet 2008);
`dot` and `matmul_int64` (batched over leading axes, recombined by
`kernel.recombine`) sum products on 21-bit limbs in float matmuls.
`conv` goes through `np.convolve` when its int64 sums cannot overflow;
every other product of polynomials, and every batched product of
polynomial matrices, runs on the exact floating-point FFT kernel of
`kernel.py`, with a transform step and a product step that a caller
applying one operand many times keeps (`kernel.PassPlan`, for the
structured passes).  `fft_spectra` and `conv_matmul` build their steps
for one call, which never grows the passes' buffer.  All paths return
identical residues.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .counting import MultCounter, pow_cost
from .errors import DivisionByZeroError, NotPrimeError, TooLargeError
from .kernel import (ProductStep, TransformStep, _chunking, _limb_plan,
                     _nbytes, _pass_buffer_bytes, _spare_buffer, _view,
                     recombine)

MAX_MODULUS = 1 << 62

# Below this modulus int64 holds a product of two residues (`_product`).
_INT64_LIMIT = 1 << 31

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Limbs of `PrimeField.matmul_int64` and `dot`: 21-bit limbs of residues
# below 2**62 and up to 2**11 terms per float matmul keep every sum below
# 2**53.
_LIMB_BITS = 21
_LIMB_TERMS = 1 << 11

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
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            raise TypeError(f"cannot hash {type(part)!r} into a seed")
    return int.from_bytes(h.digest(), "little")


class PrimeField:
    """Arithmetic context modulo a word-sized prime.

    Immutable after construction apart from an internal cache of NTT
    tables (write-once, derived data only, so concurrent use is safe).
    """

    __slots__ = ("p", "two_adicity", "ntt_capable", "ntt_root", "_inv_cost",
                 "_ntt_tables")

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
        self._inv_cost = pow_cost(p - 2)
        self._ntt_tables = {}

    # Kept only because perfbench/tracer.py wraps `ntt_many` by name; only
    # `ntt_many` reads the root.
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
        return np.array([table[v] for v in vals], dtype=np.int64)

    # -- array plumbing ---------------------------------------------------

    def asvec(self, data) -> np.ndarray:
        """New int64 residues of integers of any size, reduced before the cast."""
        a = np.asarray(data)
        if a.dtype.kind in "bi" or a.dtype.kind == "u" and a.itemsize < 8:
            return np.mod(a, self.p, dtype=np.int64)
        return np.array([int(x) % self.p for x in a.flat],
                        dtype=np.int64).reshape(a.shape)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def unit_vector(self, n: int, i: int) -> np.ndarray:
        e = self.zeros(n)
        e[i] = 1
        return e

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    def rand_vec(self, rng: np.random.Generator, shape) -> np.ndarray:
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    # -- vectorized arithmetic ---------------------------------------------

    def _product(self, a, b) -> np.ndarray:
        """Int64 values congruent to a * b mod p, for a and b in (-p, p)
        broadcast (one may be a Python int): a * b below 2**31, a value in
        [-p, 2p) above it.  There the factor with more entries splits in
        31-bit halves, x = h 2**31 + l, and the other, f, with f' = f 2**31
        mod p (Python ints for a scalar f, else one quotient step, in (-2p,
        2p)), gives f x = f l + f' h (mod p) by a second step.  A quotient
        step takes V - q p, q the floor of a float64 V / p that errs by
        under 2**-18 (|V / p| < 3 * 2**31): exact in wrapping int64."""
        p = self.p
        if p < _INT64_LIMIT:
            return np.multiply(a, b)
        if np.ndim(a) > 0 and (np.ndim(b) == 0 or np.size(a) >= np.size(b)):
            a, b = b, a
        lo, hi = np.bitwise_and(b, (1 << 31) - 1), np.right_shift(b, 31)
        if np.ndim(a) == 0:
            a, g = int(a) % p, (int(a) << 31) % p
            q = np.floor(lo * (a / p) + hi * (g / p)).astype(np.int64)
        else:
            x = a.astype(float)
            g = a * (1 << 31) - (x * (2.0 ** 31 / p)).astype(np.int64) * p
            q = np.floor((lo * x + hi * g.astype(float)) / p).astype(np.int64)
        return np.multiply(lo, a) + np.multiply(hi, g) - q * p

    def vmul(self, a, b, counter: MultCounter | None = None) -> np.ndarray:
        """Exact a * b mod p, broadcast; one product per entry of the result."""
        out = self._product(a, b) % self.p
        if counter is not None:
            counter.add(out.size)
        return out

    def submul(self, y, f, x, counter: MultCounter | None = None) -> np.ndarray:
        """y - f*x for residues y, broadcast (one product per entry of x)."""
        if counter is not None:
            counter.add(np.size(x))
        return (y - self._product(f, x)) % self.p

    def dot(self, a, b, counter: MultCounter | None = None) -> int:
        """Exact sum of a[i] b[i] mod p; above 2**31 on 21-bit limbs, one
        exact float matmul per 2**11 terms, combined in Python ints: the
        limbs of `matmul_int64` without its buffer views and recombination,
        whose setup made Berlekamp-Massey's short dots 2.5x slower."""
        if counter is not None:
            counter.add(len(a))
        p = self.p
        if p < _INT64_LIMIT:
            # reduce each product before summing so int64 sums cannot overflow
            return int((np.multiply(a, b) % p).sum() % p)
        shifts = np.arange(0, (p - 1).bit_length(), _LIMB_BITS)[:, None]
        weights = [1 << int(i + j) for i in shifts.flat for j in shifts.flat]
        total = 0
        for s in range(0, len(a), _LIMB_TERMS):
            x, y = ((np.right_shift(v[s:s + _LIMB_TERMS], shifts)
                     & (1 << _LIMB_BITS) - 1).astype(float) for v in (a, b))
            total += sum(w * int(v) for w, v in zip(weights, (x @ y.T).flat))
        return total % p

    def matmul(self, A, B, counter: MultCounter | None = None) -> np.ndarray:
        """Exact (a x k)(k x b) product."""
        k = A.shape[1]
        if counter is not None:
            counter.add(A.shape[0] * k * B.shape[1])
        p = self.p
        if k * (p - 1) * (p - 1) < (1 << 63):
            return A @ B % p
        if k * (p - 1) * max(0xFFFF, (p - 1) >> 16) >= (1 << 63):
            return self.matmul_int64(A, B)
        # split one operand in 16-bit halves, the high one below
        # max(2**16, p / 2**16): sums stay below 2**63; in place, so at
        # most two a x b arrays are live
        out = A @ (B >> 16)
        out %= p
        out <<= 16
        low = A @ (B & 0xFFFF)
        low %= p
        out += low
        out %= p
        return out

    def matmul_int64(self, A, B, counter: MultCounter | None = None) -> np.ndarray:
        """Exact products of int64 residue arrays, (..., a, k) times (...,
        k, b) over one leading batch shape, in int64 for every p, charged
        as `matmul` of each batch entry.

        Both factors split into L <= 3 limbs of 21 bits, and one batched
        float matmul per limb of B, over at most 2**11 terms at a time,
        gives every limb product sum A_i B_j exactly (below 2**11 * 2**42
        = 2**53); summed into diagonals i + j in int64 and reduced mod p
        after each run of terms (a residue plus L such sums is below
        2**63, so no k overflows), they are recombined as a product step's
        are.  Both factors' limbs are split into the thread's pass buffer,
        a run of terms short enough to fit when it has one, so a product
        allocates only its digits."""
        *batch, a, k = A.shape
        b = B.shape[-1]
        if counter is not None:
            counter.add(math.prod(batch) * a * k * b)
        if k == 0:
            return np.zeros((*batch, a, b), dtype=np.int64)
        count = -(-(self.p - 1).bit_length() // _LIMB_BITS)
        shifts = range(0, count * _LIMB_BITS, _LIMB_BITS)
        mask = (1 << _LIMB_BITS) - 1
        digits = np.zeros((2 * count - 1, 1, *batch, a, b), dtype=np.int64)
        # both sides' limbs of a run of terms, as floats, and one limb of
        # each as integers, in the pass buffer if they fit (4 cache-line
        # roundings); a run is shortened to fit
        per_term = 8 * math.prod(batch) * (count + 1) * (a + b)
        room = (_pass_buffer_bytes() - 4 * 64) // per_term
        span = _chunking(k, min(_LIMB_TERMS, max(room, 0) or _LIMB_TERMS))[1]
        parts, offset = [], 0
        for shape in ((*batch, a, span), (*batch, span, b)):
            for dims, dtype in (((count, *shape), float), (shape, np.int64)):
                parts.append((offset, dims, dtype))
                offset += _nbytes(dims, dtype)
        buf = _spare_buffer(offset)
        limbs_a, int_a, limbs_b, int_b = (_view(buf, *part) for part in parts)
        for s in range(0, k, span):
            t = min(span, k - s)
            x, y = limbs_a[..., :t], limbs_b[..., :t, :]
            for side, ints, limbs in ((A[..., s:s + t], int_a[..., :t], x),
                                      (B[..., s:s + t, :], int_b[..., :t, :], y)):
                for j, shift in enumerate(shifts):
                    np.bitwise_and(np.right_shift(side, shift, out=ints), mask,
                                   out=ints)
                    limbs[j] = ints
            for j in range(count):
                digits[j:j + count, 0] += (x @ y[j]).astype(np.int64)
            np.remainder(digits, self.p, out=digits)
        return recombine(digits, _LIMB_BITS, self.p, self.p - 1)

    def matvec_dense(self, A, v, counter: MultCounter | None = None) -> np.ndarray:
        return self.matmul(A, v.reshape(-1, 1), counter).reshape(-1)

    # -- convolution --------------------------------------------------------

    def _ntt_ok(self, out_len: int) -> bool:
        if not self.ntt_capable or self.p >= _INT64_LIMIT:
            return False
        size = 1 << max(0, out_len - 1).bit_length()
        return size <= (1 << self.two_adicity)

    def conv_charge(self, la: int, lb: int) -> int:
        """Canonical multiplication count of one convolution on either
        route; the NTT formula is a charge rule only (`counting.py`)."""
        if la == 0 or lb == 0:
            return 0
        out_len = la + lb - 1
        if self._ntt_ok(out_len):
            size = 1 << max(0, out_len - 1).bit_length()
            lg = size.bit_length() - 1
            return 3 * (size // 2) * lg + 2 * size
        return la * lb

    def conv(self, a, b, counter: MultCounter | None = None) -> np.ndarray:
        """Full product of coefficient vectors, length len(a)+len(b)-1:
        `np.convolve` while its int64 sums cannot overflow, the FFT kernel
        (`conv_matmul`) otherwise.  Charged `conv_charge` on either."""
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            return self.zeros(0)
        if counter is not None:
            counter.add(self.conv_charge(la, lb))
        if min(la, lb) * (self.p - 1) ** 2 < (1 << 63):
            return np.convolve(a, b) % self.p
        return self.conv_matmul(np.reshape(a, (1, 1, la)),
                                np.reshape(b, (1, 1, lb)), la + lb - 1)[0, 0]

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
        """Transform step of the FFT product kernel (`TransformStep`): the
        limb spectra, new arrays, of residues x for la x lb products, term
        axis `axis`."""
        step = TransformStep(self.p, la, lb, x.shape, axis)
        return step.run(step.bind(x))

    def conv_matmul(self, a: np.ndarray, b: np.ndarray,
                    out_len: int) -> np.ndarray:
        """Exact polynomial matrix product: a is (I, T, la) and b is
        (T, J, lb), coefficients on the last axis; returns the (I, J,
        out_len) int64 residues of the first out_len
        coefficients of sum_t a[i, t] * b[t, j].  One transform step per
        operand (`fft_spectra`) and one `ProductStep`, built for this one
        product; callers that apply one operand many times keep its
        spectra."""
        I, T, la = np.shape(a)
        J, lb = np.shape(b)[1:]
        if 0 in (I, T, J, la, lb, out_len):
            return self.zeros((I, J, out_len))
        fa = self.fft_spectra(a, la, lb, axis=1)
        fb = self.fft_spectra(b[None], la, lb, axis=1)
        step = ProductStep(self.p, la, lb, 1, I, fa.shape[2], J, out_len)
        return step.run(step.bind(fb), step.layout([fa]))[0]

    # -- number-theoretic transform -----------------------------------------
    # Kept only because perfbench/tracer.py wraps `ntt_many` by name; no
    # library code calls it or `_tables_for`.

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
            hi = self.vmul(x[:, :, half:], tw)
            x = np.concatenate(((lo + hi) % p, (lo - hi) % p), axis=2)
        x = x.reshape(batch, size)
        if inverse:
            x = self.vmul(x, n_inv)
        return x
