"""The exact floating-point FFT product kernel of `PrimeField`.

Residues (below 2**62, so int64) split into L limbs of b bits, and a
product of polynomial matrices runs on numpy.fft over the limbs, exact by
an a-priori rounding-error bound (Percival 2003).  The kernel has a
transform step (`TransformStep`), so an operand applied many times is
transformed once, and a product step (`ProductStep`), batched over a
leading axis of independent products and in int64 for every p.  A step
works in a buffer at a byte offset its caller chooses: the plan of a
structured pass (`PassPlan`, cached by `pass_plan`) builds its steps once
and works in one buffer per thread, so it allocates only its result, and
a one-off step borrows that buffer if it is large enough, else its own.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref

import numpy as np

from .errors import TooLargeError

# Rounding error of one FFT product (Percival 2003, to first order): with
# unit roundoff 2**-53, a size-N FFT product of x and y is off by at most
# ||x||_2 ||y||_2 * 3 lg N * (2 + sqrt 5) * 2**-53 in every coefficient.
_FFT_ERROR = 3 * (2 + math.sqrt(5)) * 2.0 ** -53
# Error budget per output coefficient: np.rint is exact below 1/2, and the
# factor of two covers the higher-order terms the bound above drops.
_FFT_ROUNDING = 0.25
# Limb pair spectra per slab of a product step, in bytes: the step's
# largest arrays (the pairs and the operand they are formed with, each this
# large), L**2 spectra per term against the 2L - 1 diagonal spectra per
# chunk that they are summed into.  Slabs stay within it, not about it.
_SLAB_BYTES = 1 << 18

# A structured pass works in one buffer per thread, grown to the largest
# pass and reused by every later pass of the thread, so a warm pass
# allocates only its result and maps no memory afresh.  Each step of a
# pass works at a byte offset of it that the plan chooses, so that arrays
# live at once never share bytes and arrays that are not may.  The plans
# bound to the buffer, whose views keep it alive, are unbound when it
# grows, so the old one is freed.  A one-off step borrows the buffer if it
# is large enough and never grows it, so a large one-off product stays
# transient.  Borrowing it is measured: with one-off steps and
# `PrimeField.matmul_int64` working in fresh arrays instead, peak RSS rose
# by 0.5 MB on a Toeplitz-like BSGS minpoly at n = 256 and by 0.8-0.9 MB
# on a naive T+H-like minpoly at n = 128, p = 2**61 - 1 (3 of 3 process
# pairs each), and did not change on a block charpoly at n = 64.
_scratch = threading.local()


def _nbytes(shape: tuple, dtype) -> int:
    """Bytes of an array of `shape`, rounded up to whole cache lines."""
    return -(-math.prod(shape) * np.dtype(dtype).itemsize // 64) * 64


def _pass_buffer(nbytes: int) -> np.ndarray:
    """This thread's pass buffer, grown to at least `nbytes`."""
    buf = getattr(_scratch, "buffer", None)
    if buf is None or buf.nbytes < nbytes:
        for plan in getattr(_scratch, "plans", ()):
            plan.bound = None
        _scratch.plans = weakref.WeakSet()
        buf = _scratch.buffer = np.empty(nbytes, dtype=np.uint8)
    return buf


def _spare_buffer(nbytes: int) -> np.ndarray:
    """At least `nbytes` for a one-off step: this thread's pass buffer if
    it is that large, else a new buffer."""
    buf = getattr(_scratch, "buffer", None)
    if buf is None or buf.nbytes < nbytes:
        buf = np.empty(nbytes, dtype=np.uint8)
    return buf


def _view(buf: np.ndarray, offset: int, shape: tuple, dtype) -> np.ndarray:
    """An array of `shape` at byte `offset` of `buf`; contents undefined."""
    return np.ndarray(shape, dtype, buffer=buf, offset=offset)


def _chunking(count: int, terms: int) -> tuple[int, int]:
    """(chunks, size): count terms split into the fewest chunks of at most
    `terms`, all of one size; a padded count chunks * size splits the same
    way again."""
    chunks = -(-count // terms)
    return chunks, -(-count // chunks) if chunks else 0


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


@functools.lru_cache(maxsize=256)
def _product_plan(bits: int, la: int, lb: int, B: int, I: int, T: int, J: int):
    """Constants of a `ProductStep` of one shape: (b, L, FFT size, chunk
    count C and size t, rows, chunks and terms per slab, weights).

    A slab is some rows of a, some chunks of each and some terms of each
    chunk, whose limb pairs, L**2 per term, take at most _SLAB_BYTES
    unless one term does: the fewest slabs within it, split evenly over
    whole rows, else over whole chunks of one row, else over the terms of
    one chunk.  weights is the 0/1 (2L - 1) x t L**2 matrix that sums
    pair (l, m) of each term into diagonal l + m; its first g L**2
    columns serve g terms.
    """
    b, count, terms = _limb_plan(bits, la, lb)
    size = _fft_size(la, lb)
    C, t = _chunking(T, terms)

    def per_slab(items: int, nbytes: int) -> int:
        most = max(1, _SLAB_BYTES // nbytes)
        return -(-items // -(-items // most))

    term = count * count * B * J * (size // 2 + 1) * 16
    if term * T <= _SLAB_BYTES:
        split = per_slab(I, term * T), C, t
    elif term * t <= _SLAB_BYTES:
        split = 1, per_slab(C, term * t), t
    else:
        split = 1, 1, per_slab(t, term)
    l, m = np.divmod(np.arange(count * count), count)
    weights = np.tile(np.arange(2 * count - 1)[:, None] == l + m, t).astype(float)
    weights.flags.writeable = False
    return b, count, size, C, t, *split, weights


class TransformStep:
    """Transform step of the FFT product kernel for int64 inputs of one
    shape, coefficients on the last axis, at most max(la, lb) of them:
    residues (below 2**62) split into the L limbs of b bits of
    `_limb_plan` and transformed with rfft at the FFT size, to
    spectra of shape (L,) + shape[:-1] + (size // 2 + 1,), the term axis
    `axis` padded with zero terms to whole chunks; p is the modulus.

    Its limbs take the first `head` bytes of its place in a buffer, the
    limb integers the next ones, and then the spectra, if kept there, the
    same bytes as the integers, which are spent by the time the spectra
    are written: `footprint` bytes in all."""

    __slots__ = ("ints", "limbs", "spectra", "axis", "fill", "pad", "shifts",
                 "mask", "size", "head", "footprint")

    def __init__(self, p: int, la: int, lb: int, shape: tuple, axis: int):
        b, count, terms = _limb_plan((p - 1).bit_length(), la, lb)
        chunks, t = _chunking(shape[axis], terms)
        padded = list(shape)
        padded[axis] = chunks * t
        self.size = _fft_size(la, lb)
        self.ints = (count, *shape)
        self.limbs = (count, *padded)
        self.spectra = (count, *padded[:-1], self.size // 2 + 1)
        self.axis = axis
        self.fill = (slice(None),) + tuple(slice(0, m) for m in shape)
        self.pad = None
        if chunks * t > shape[axis]:
            self.pad = (slice(None),) * (axis + 1) + (slice(shape[axis], None),)
        self.shifts = np.arange(0, b * count, b).reshape(
            (count,) + (1,) * len(shape))
        self.mask = (1 << b) - 1
        self.head = _nbytes(self.limbs, float)
        self.footprint = self.head + max(_nbytes(self.ints, np.int64),
                                         _nbytes(self.spectra, complex))

    def bind(self, x: np.ndarray, flip: int = 0,
             buf: np.ndarray | None = None, base: int = 0) -> tuple:
        """The arrays of a transform of x, its first `flip` terms read in
        reverse order of coefficients, for `run`: the spectra are kept at
        byte `base` + `head` of `buf`, or are a new array on each run if
        `buf` is None (the step then works in a `_spare_buffer`)."""
        out = None
        if buf is None:
            buf = _spare_buffer(self.head + _nbytes(self.ints, np.int64))
        else:
            out = _view(buf, base + self.head, self.spectra, complex)
        limbs = _view(buf, base, self.limbs, float)
        ints = _view(buf, base + self.head, self.ints, np.int64)
        if flip:
            i, fill = self.axis + 1, self.fill
            head = fill[:i] + (slice(0, flip),) + fill[i + 1:]
            tail = fill[:i] + (slice(flip, fill[i].stop),) + fill[i + 1:]
            copies = ((limbs[head], ints[head][..., ::-1]),
                      (limbs[tail], ints[tail]))
        else:
            copies = ((limbs[self.fill], ints),)
        if self.pad is not None:
            copies += ((limbs[self.pad], 0),)
        return x, ints, copies, limbs, out

    def run(self, work: tuple) -> np.ndarray:
        """The spectra of a transform bound by `bind`."""
        x, ints, copies, limbs, out = work
        np.right_shift(x, self.shifts, out=ints)
        np.bitwise_and(ints, self.mask, out=ints)
        for dst, src in copies:
            np.copyto(dst, src)
        return np.fft.rfft(limbs, n=self.size, axis=-1, out=out)


class ProductStep:
    """Product step of the FFT product kernel for one shape: residues of
    sum_t a[g, i, t] * b[g, t, j] for each g of a leading batch axis, first
    out_len coefficients, from the `TransformStep` spectra of a, one (L, I,
    T, F) array per batch entry g, and fb (L, B, T, J, F) of b; returns (B,
    I, J, out_len) int64 residues mod p for every p.

    The product is cyclic, of size N = `_fft_size(la, lb)` >= la + lb - 1,
    so its coefficients are the linear product's.  A spectrum may also be
    conjugated: conj(rfft(a)) is the spectrum of a's cyclic reversal a'[m]
    = a[-m mod N], which has a's norm, so the error bound below holds
    unchanged; coefficient m of a' b is then sum_t a[t] b[m + t], a
    correlation, which does not alias for m < lb since N >= la + lb - 1.

    The T terms fall into C equal chunks of t <= `terms` (the transform
    step pads T to fit).  A slab of terms, rows and chunks takes copies, one
    multiply and one matmul: both operands are copied out to the shape of
    their limb pairs (l, m) of every term, batch, row and chunk, (t, l, m,
    c, b, i, j, f), a's one batch entry at a time, so that the multiply that
    forms the pairs reads two C-contiguous arrays of its own shape (a
    broadcast multiply allocates iterator buffers), and one real matmul by
    the 0/1 weights of `_product_plan`, on the complex values viewed as
    float pairs, sums them into the output limb diagonals d = l + m.  One
    irfft and np.rint then give each chunk's 2L - 1 diagonals exactly, a
    diagonal d standing for 2**(b d) times its value.  Each is below
    2**47.4, since terms * L * (2**b - 1)**2 * sqrt(la lb) * 3 lg N * (2 +
    sqrt 5) * 2**-53 < 1/4, whatever the order of the sums.  The slabs of
    `_product_plan` keep the pairs within _SLAB_BYTES; a slab of some terms
    of a chunk adds its sums to the earlier terms'.

    Its working arrays take `footprint` bytes of a buffer: the diagonal
    spectra of a slab of rows, its pairs and their operand or, once those
    are summed, its inverse transforms, and then the digits of all rows.
    `bind` lays them out once, with every slab's views, for `run`.
    """

    __slots__ = ("p", "B", "I", "T", "J", "out_len", "bits", "count",
                 "size", "C", "t", "rows", "chunks", "group", "weights",
                 "pairs", "operand", "digits", "footprint")

    def __init__(self, p: int, la: int, lb: int, B: int, I: int, T: int,
                 J: int, out_len: int):
        self.p = p
        self.B, self.I, self.T, self.J, self.out_len = B, I, T, J, out_len
        (self.bits, self.count, self.size, self.C, self.t, self.rows,
         self.chunks, self.group, self.weights) = _product_plan(
            (p - 1).bit_length(), la, lb, B, I, T, J)
        F = self.size // 2 + 1
        D, L, C, rows = len(self.weights), self.count, self.C, self.rows
        pairs = _nbytes((self.group, L, L, self.chunks, B, rows, J, F), complex)
        self.pairs = _nbytes((D, C, B, rows, J, F), complex)
        self.operand = self.pairs + pairs
        raw = _nbytes((D, C, B, rows, J, self.size), float)
        self.digits = self.pairs + max(2 * pairs, raw)
        self.footprint = self.digits + _nbytes((D, C, B, I, J, out_len),
                                               np.int64)

    def layout(self, parts) -> list:
        """The a side's spectra as the pair multiply reads them: views of
        the (L, I, T, F) spectra of each batch entry in the pair order, (t,
        l, 1, c, i, 1, f), the same for every B and J."""
        return [fa.reshape(self.count, self.I, self.C, self.t, fa.shape[-1])
                .transpose(3, 0, 2, 1, 4)[:, :, None, :, :, None] for fa in parts]

    def bind(self, fb: np.ndarray, out: np.ndarray | None = None,
             buf: np.ndarray | None = None, base: int = 0) -> tuple:
        """The arrays of a product with the spectra fb, slab by slab, for
        `run`: the residues go into `out` if given, else into a new array
        on each run; the step works at byte `base` of `buf`, or in a
        `_spare_buffer` if `buf` is None."""
        if buf is None:
            buf = _spare_buffer(self.footprint)
        B, I, J, out_len = self.B, self.I, self.J, self.out_len
        count, C, t, size = self.count, self.C, self.t, self.size
        F = fb.shape[-1]
        diagonals = len(self.weights)
        b = fb.reshape(count, B, C, t, J, F).transpose(3, 0, 2, 1, 4, 5)[
            :, None, ..., None, :, :]
        digits = _view(buf, base + self.digits,
                       (diagonals, C, B, I, J, out_len), np.int64)
        slabs = []
        for i in range(0, I, self.rows):
            r = min(self.rows, I - i)
            spec = _view(buf, base, (diagonals, C, B, r, J, F), complex)
            raw = _view(buf, base + self.pairs, (diagonals, C, B, r, J, size),
                        float)
            terms = []
            for c in range(0, C, self.chunks):
                k = min(self.chunks, C - c)
                sums = spec[:, c:c + k].view(float).reshape(diagonals, -1)
                for s in range(0, t, self.group):
                    g = min(self.group, t - s)
                    shape = (g, count, count, k, B, r, J, F)
                    pairs = _view(buf, base + self.pairs, shape, complex)
                    other = _view(buf, base + self.operand, shape, complex)
                    slab = (slice(s, s + g), slice(None), slice(None),
                            slice(c, c + k), slice(i, i + r))
                    flat = pairs.reshape(g * count * count, -1).view(float)
                    dsts = [pairs[:, :, :, :, e] for e in range(B)]
                    terms.append((dsts, slab, other,
                                  b[slab[:4]], pairs,
                                  self.weights[:, :len(flat)], flat, sums, s))
            slabs.append((terms, spec, raw, digits[:, :, :, i:i + r],
                          raw[..., :out_len]))
        return slabs, digits, out

    def run(self, work: tuple, a: list) -> np.ndarray:
        """The residues of the product of `layout` a and the spectra bound
        by `bind`."""
        slabs, digits, out = work
        for terms, spec, raw, rows, head in slabs:
            for dsts, slab, other, src, pairs, weights, flat, sums, s in terms:
                for dst, x in zip(dsts, a):
                    np.copyto(dst, x[slab])
                np.copyto(other, src)
                np.multiply(pairs, other, out=pairs)
                if s:
                    sums += weights @ flat
                else:
                    np.matmul(weights, flat, out=sums)
            np.fft.irfft(spec, n=self.size, axis=-1, out=raw)
            np.rint(raw, out=raw)
            rows[...] = head
        return recombine(digits, self.bits, self.p, out)


def recombine(digits: np.ndarray, bits: int, p: int,
          out: np.ndarray | None = None) -> np.ndarray:
    """Int64 residues mod p, into `out` if given, of sum_c sum_d
    digits[d, c] * 2**(b d), the chunk diagonals of a product step (each
    below 2**47.4, or below p): chunks summed raw, 2**14 at a time (so a
    residue plus such a sum is below 2**63), and reduced mod p (a lone
    chunk stays raw), then Horner steps acc * 2**b + diagonal mod p from
    the top, acc < p.  While (acc << b) + diagonal fits int64, as for
    every p < 2**31, a step is a shift, an add and a reduction (whole
    solves run ~7% faster than with the quotient step).  Above that, q =
    floor(acc * (2**b / p)) in float64 is off by at most one (relative
    error below 2**-51, quotient below 2**b), so (acc << b) - q p lies in
    [-p, 2p), exact in wrapping int64, and subtracting p, then adding the
    diagonal, keeps it in int64 for the reduction.  A reduction is x - (x
    // p) p: numpy divides by a scalar with precomputed multipliers, where
    its remainder divides.  The top diagonal, once read, holds the
    quotients."""
    diag = digits[:, 0]
    for c in range(1, digits.shape[1], 1 << 14):
        diag = (diag + digits[:, c:c + (1 << 14)].sum(axis=1)) % p
    acc = np.remainder(diag[-1], p, out=out)
    q = diag[-1]
    if ((p - 1) << bits) + max(p, 1 << 48) <= 1 << 63:
        for d in range(len(diag) - 2, -1, -1):
            acc <<= bits
            acc += diag[d]
            acc -= np.multiply(np.floor_divide(acc, p, out=q), p, out=q)
        return acc
    scale = (1 << bits) / p
    for d in range(len(diag) - 2, -1, -1):
        q[...] = acc * scale
        acc <<= bits
        acc -= np.multiply(q, p, out=q)
        acc -= p
        acc += diag[d]
        acc -= np.multiply(np.floor_divide(acc, p, out=q), p, out=q)
    return acc


class PassPlan:
    """The steps of one shape of a two-stage structured pass (see
    `THMatrix._pass`): G groups of n x k blocks, each through two product
    steps in a row over `width` generator columns, T of them padded, the
    first `flip` of which are reversed between the stages.  A plan holds
    constants of its shape only, so every matrix of the shape shares it;
    a matrix lays its spectra out once for every plan (`THMatrix._pass`).

    A pass works in the thread's pass buffer: the input blocks and then
    the stage-1 result u at its start, and each transform step after u.
    Stage 1's product step works after the spectra it reads; stage 2's
    over u and the transform's limbs, both spent by then, if it fits
    there, else after its spectra too.  `footprint` is the most that any
    step of the pass reaches.  The plan binds its steps to the buffer on
    first use, and again only if the thread's buffer has grown since or is
    another thread's."""

    __slots__ = ("shape", "flip", "transform1", "stage1", "transform2",
                 "stage2", "u", "work1", "work2", "footprint", "bound",
                 "__weakref__")

    def __init__(self, p: int, n: int, width: int, T: int, flip: int,
                 groups: int, k: int):
        self.shape = groups, k, n, width
        self.flip = flip
        self.transform1 = t1 = TransformStep(p, n, n, (groups, 1, k, n), 1)
        self.stage1 = ProductStep(p, n, n, groups, width, 1, k, n)
        self.transform2 = t2 = TransformStep(p, n, n, (groups, width, k, n), 1)
        self.stage2 = ProductStep(p, n, n, groups, 1, T, k, n)
        self.u = u = _nbytes((groups, width, k, n), np.int64)
        self.work1 = u + t1.head + _nbytes(t1.spectra, complex)
        self.work2 = 0
        if self.stage2.footprint > u + t2.head:
            self.work2 = u + t2.head + _nbytes(t2.spectra, complex)
        self.footprint = max(u + t1.footprint, self.work1 + self.stage1.footprint,
                             u + t2.footprint, self.work2 + self.stage2.footprint)
        self.bound = None

    def _bind(self, buf: np.ndarray) -> tuple:
        """The pass's steps bound to `buf`, and the rows of its input."""
        groups, k, n, width = self.shape
        x = _view(buf, 0, (groups, 1, k, n), np.int64)
        u = _view(buf, 0, (groups, width, k, n), np.int64)
        t1 = self.transform1.bind(x, 0, buf, self.u)
        s1 = self.stage1.bind(t1[-1], u, buf, self.work1)
        t2 = self.transform2.bind(u, self.flip, buf, self.u)
        s2 = self.stage2.bind(t2[-1], None, buf, self.work2)
        return buf, list(x[:, 0]), t1, s1, t2, s2

    def __call__(self, blocks, fixed: tuple) -> np.ndarray:
        """(G, k, n) int64 products of the input blocks with the laid-out
        spectra `fixed` of stages 1 and 2, a new array."""
        buf = _pass_buffer(self.footprint)
        bound = self.bound
        if bound is None or bound[0] is not buf:
            bound = self.bound = self._bind(buf)
            _scratch.plans.add(self)
        _, rows, t1, s1, t2, s2 = bound
        for r, X in zip(rows, blocks):
            w = X.shape[1]
            r[:w] = X[::-1].T
            r[w:] = 0
        self.transform1.run(t1)
        self.stage1.run(s1, fixed[0])
        self.transform2.run(t2)
        return self.stage2.run(s2, fixed[1])[:, 0]


# Plans hold constants of their shape only, so all passes of a shape share one.
pass_plan = functools.lru_cache(maxsize=256)(PassPlan)
