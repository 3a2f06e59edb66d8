import warnings

import numpy as np
import pytest

from thpoly import (MultCounter, PrimeField, THMatrix, ToeplitzCore,
                    derive_seed, is_prime, random_structured)
from thpoly.errors import DivisionByZeroError, NotPrimeError, TooLargeError
from thpoly.kernel import (ProductStep, _chunking, _limb_plan, _product_plan,
                           _scratch, recombine)

import _ref

P_NTT = 2013265921


def test_small_field_not_ntt_capable():
    f = PrimeField(7)
    assert f.p == 7
    assert not f.ntt_capable      # 7 - 1 = 6 has 2-adic valuation 1


def test_ntt_field_root_invariants():
    f = PrimeField(P_NTT)        # 15 * 2**27 + 1
    assert f.ntt_capable
    assert f.two_adicity == 27
    assert pow(f.ntt_root, 1 << f.two_adicity, f.p) == 1
    assert pow(f.ntt_root, 1 << (f.two_adicity - 1), f.p) == f.p - 1


def test_composite_rejected():
    with pytest.raises(NotPrimeError):
        PrimeField(9)


def test_out_of_range_rejected():
    with pytest.raises(TooLargeError):
        PrimeField(1 << 62)
    with pytest.raises(TooLargeError):
        PrimeField(2)


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(P_NTT)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2013265923)
    # strong pseudoprime to several bases
    assert not is_prime(3215031751)


def test_arith_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5                       # 3 * 5 = 15 = 1 mod 7
    f101 = PrimeField(101)
    assert f101.pow(2, 10) == 14                # 1024 - 10 * 101
    rng = f101.rng(0)
    for x in f101.rand_vec(rng, 20):
        assert f101.mul(0, int(x)) == 0
    with pytest.raises(DivisionByZeroError):
        f101.inv(0)


@pytest.mark.parametrize("p", [101, P_NTT])
def test_ring_axioms_and_closure(p):
    f = PrimeField(p)
    rng = f.rng(1)
    triples = f.rand_vec(rng, (1000, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        ab = f.mul(a, b)
        assert 0 <= ab < p
        assert f.mul(ab, c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert 0 <= f.sub(a, b) < p
        if a:
            assert f.mul(a, f.inv(a)) == 1


def test_batch_inv_examples():
    f7 = PrimeField(7)
    assert f7.inverses(f7.asvec([1, 2, 4])).tolist() == [1, 4, 2]
    assert f7.inverses(f7.asvec([1])).tolist() == [1]


def test_batch_inv_random_vs_egcd():
    f = PrimeField(P_NTT)
    rng = f.rng(3)
    vals = [int(v) % (f.p - 1) + 1 for v in f.rand_vec(rng, 100)]
    assert f.inverses(f.asvec(vals)).tolist() == [_ref.egcd_inv(v, f.p)
                                                  for v in vals]


def test_batch_inv_reports_offending_index():
    f = PrimeField(101)
    with pytest.raises(DivisionByZeroError, match="index 2"):
        f.inverses(f.asvec([1, 5, 0, 3]))


def test_derive_seed_stable():
    a = derive_seed("tag", 7, np.arange(4))
    b = derive_seed("tag", 7, np.arange(4))
    c = derive_seed("tag", 8, np.arange(4))
    assert a == b != c


# (b, L, terms) of the float-FFT kernel: limb bits, limb count, generator
# terms summed per inverse transform.  Written out so that any change to
# the error bound shows; tests/test_structured.py::test_matvec_vs_dense
# runs the kernel at these sizes on all-(p-1) inputs.
FFT_LIMB_PINS = (
    (3, 1, (2, 1, 19688067694484)),
    (3, 256, (2, 1, 8545168270)),
    (101, 256, (7, 1, 4768213)),
    (P_NTT, 1, (16, 2, 20628)),
    (P_NTT, 256, (16, 2, 8)),
    (P_NTT, 1024, (16, 2, 1)),
    (P_NTT, 1719, (16, 2, 1)),
    (P_NTT, 1720, (11, 3, 682)),
    ((1 << 31) - 1, 256, (16, 2, 8)),
    ((1 << 31) - 1, 1719, (16, 2, 1)),
    ((1 << 31) - 1, 1720, (11, 3, 682)),
    ((1 << 61) - 1, 4, (21, 3, 1)),
    ((1 << 61) - 1, 5, (16, 4, 515)),
    ((1 << 61) - 1, 128, (16, 4, 10)),
    ((1 << 61) - 1, 937, (16, 4, 1)),
    ((1 << 61) - 1, 938, (13, 5, 51)),
    (65537, 256, (17, 1, 4)),
)


@pytest.mark.parametrize("p,n,plan", FFT_LIMB_PINS)
def test_fft_limbs_pins(p, n, plan):
    assert PrimeField(p).fft_limbs(n, n) == plan


# Products that take several slabs of a product step and several chunks, at
# each limb count of FFT_LIMB_PINS: slabs of rows, of the chunks of a row
# and of the terms of a chunk.
SLAB_CASES = (
    (65537, 8, 9, 1, 256, 256, 511),                 # 1 limb, row slabs
    (P_NTT, 2, 17, 1, 256, 256, 511),                # 2 limbs, chunk slabs
    ((1 << 61) - 1, 130, 3, 1, 4, 4, 7),             # 3 limbs, row slabs
    ((1 << 61) - 1, 2, 517, 1, 5, 5, 9),             # 4 limbs, term slabs
    ((1 << 61) - 1, 2, 21, 1, 128, 128, 255),        # 4 limbs, chunk slabs
    ((1 << 61) - 1, 2, 52, 1, 938, 938, 1875),       # 5 limbs, term slabs
)


@pytest.mark.parametrize("p,I,T,J,la,lb,out_len", [
    (3, 1, 2, 1, 4, 3, 6),
    (101, 2, 3, 2, 5, 7, 11),
    ((1 << 31) - 1, 2, 1, 1, 1, 1, 1),
    ((1 << 31) - 1, 2, 3, 2, 5, 7, 4),
    ((1 << 31) - 1, 1, 3, 2, 1024, 1024, 1024),    # one term per transform
    (P_NTT, 2, 0, 3, 4, 4, 7),                       # no terms
    ((1 << 61) - 1, 2, 1, 1, 1, 1, 1),
    ((1 << 61) - 1, 2, 3, 2, 4, 4, 7),               # 21-bit limbs
    ((1 << 61) - 1, 1, 517, 2, 5, 5, 9),             # 515 terms per transform
    ((1 << 61) - 1, 1, 2, 1, 937, 937, 1873),        # one term per transform
    ((1 << 61) - 1, 1, 1, 2, 938, 938, 938),         # 13-bit limbs
] + list(SLAB_CASES))
def test_conv_matmul_vs_exact_convolution(p, I, T, J, la, lb, out_len):
    f = PrimeField(p)
    rng = f.rng(I * 100 + T * 10 + la)
    a = f.rand_vec(rng, (I * T, la)).reshape(I, T, la)
    b = f.rand_vec(rng, (T * J, lb)).reshape(T, J, lb)
    a[0] = p - 1                       # all-(p-1) rows on both sides
    b[:, 0] = p - 1
    out = f.conv_matmul(a, b, out_len)
    assert out.dtype == np.int64
    assert np.array_equal(out, _exact_conv_matmul(f, a, b, out_len))


def test_slab_cases_split():
    kinds = set()
    for p, I, T, J, la, lb, _ in SLAB_CASES:
        bits = (p - 1).bit_length()
        C, t = _chunking(T, _limb_plan(bits, la, lb)[2])
        rows, chunks, group = _product_plan(bits, la, lb, 1, I, C * t, J)[5:8]
        assert C > 1 and (rows < I or chunks < C or group < t)
        kinds.add("terms" if group < t else "chunks" if chunks < C else "rows")
    assert kinds == {"rows", "chunks", "terms"}


def test_kronecker_reference_matches_schoolbook():
    rng = np.random.default_rng(4)
    for p in (101, (1 << 61) - 1):
        a = [[rng.integers(0, p, size=k).tolist() for k in (3, 1)]
             for _ in range(2)]
        b = [[rng.integers(0, p, size=k).tolist() for k in (4, 2, 5)]
             for _ in range(2)]
        got = _ref.kronecker_matmul(a, b, 7, p)
        for i in range(2):
            for j in range(3):
                want = [0] * 7
                for t in range(2):
                    for k, c in enumerate(_ref.schoolbook_mul(a[i][t], b[t][j], p)):
                        want[k] = (want[k] + c) % p
                assert got[i][j] == want


def _exact_conv_matmul(f, a, b, out_len):
    want = f.zeros((a.shape[0], b.shape[1], out_len))
    if a.shape[1]:
        want[:] = _ref.kronecker_matmul(a.tolist(), b.tolist(), out_len, f.p)
    return want


# Primes above 2**31 other than 2**61 - 1, where 2**61 = 1 (mod p) would
# hide a wrong reduction of 2**(b d).  The first two recombine by int64
# shifts (16- and 17-bit limbs), the last two (3 and 4 limbs) by the
# float64 quotient step; 2**62 - 57 is the largest supported prime.
BIG_PRIMES = (2147483659, 4294967311, 140737488355213, 4611686018427387847)


@pytest.mark.parametrize("p", BIG_PRIMES)
@pytest.mark.parametrize("la,lb,out_len,chunks", [
    (5, 5, 9, 3),              # sums over several chunks
    (6, 4, 7, 2),              # truncated output
    (64, 64, 127, 1),
])
def test_conv_matmul_big_primes(p, la, lb, out_len, chunks):
    # every term of (i, j) = (0, 0) is all-(p-1), of (1, 1) random, and
    # the terms fill `chunks` whole chunks and one more term
    f = PrimeField(p)
    T = chunks * f.fft_limbs(la, lb)[2] + 1
    rng = f.rng(p % 1000 + la)
    a = f.rand_vec(rng, (2 * T, la)).reshape(2, T, la)
    b = f.rand_vec(rng, (T * 2, lb)).reshape(T, 2, lb)
    a[0] = p - 1
    b[:, 0] = p - 1
    out = f.conv_matmul(a, b, out_len)
    assert out.dtype == np.int64
    assert np.array_equal(out, _exact_conv_matmul(f, a, b, out_len))


# The largest diagonal bound at which recombine's quotient steps still
# take two 16-bit diagonals at once: x_0 + x_1 2**16 < 2**63.
PAIR_BOUND = ((1 << 63) - 1) // ((1 << 16) + 1)


@pytest.mark.parametrize("p", BIG_PRIMES + ((1 << 61) - 1,))
def test_recombine_near_quotient_boundaries(p):
    # the last Horner step starts from acc = Y (mod p) with Y * 2**(16 g)
    # just below, at or just above a multiple of p, where the float64
    # quotient estimate can be off by one, for both groupings: a raw bound
    # of 2**47 - 1 steps one 16-bit diagonal at a time (g = 1), PAIR_BOUND
    # two (g = 2); the lowest diagonal is 0 or at the bound
    ks = (1, 2, 3, 129, 257, 3419, 40000, (1 << 16) - 1)
    for g, bound in ((1, (1 << 47) - 1), (2, PAIR_BOUND)):
        assert (bound * ((1 << 16) + 1) < 1 << 63) == (g == 2)
        Y = [min(p - 1, -(-k * p >> 16 * g) + e) for k in ks for e in (-1, 0, 1)]
        low = [0] * len(Y) + [bound] * len(Y)
        Y = np.array(Y * 2, dtype=np.int64)
        if g == 1:          # Y 2**16 + x_0
            digits = np.stack([np.array(low), Y & 0xFFFF, Y >> 16])
        else:               # Y 2**32 + (2**16 - 1) 2**16 + x_0
            digits = np.stack([np.array(low), np.full_like(Y, 0xFFFF), Y])
        want = [sum(int(x) << 16 * d for d, x in enumerate(col)) % p
                for col in digits.T.tolist()]
        got = recombine(digits.reshape(3, 1, -1), 16, p, bound)
        assert got.tolist() == want


def test_recombine_reduced_chunk_sum_at_its_bound():
    # C * bound >= 2**62 sums the chunks a run at a time; with bound >= p
    # and a power of two, chunk 0 plus one run of bound-sized chunks must
    # stay below 2**63, not reach it (here 32 chunks of 2**58)
    p, bound = P_NTT, 1 << 58
    rng = np.random.default_rng(3)
    digits = rng.integers(0, bound, size=(5, 32, 7), dtype=np.int64,
                          endpoint=True)
    digits[:, :, 0] = bound
    want = [sum(int(x) << 16 * d for d, x in enumerate(col)) % p
            for col in digits.sum(axis=1, dtype=object).T.tolist()]
    assert recombine(digits, 16, p, bound).tolist() == want


def test_matvec_sums_chunks_in_runs():
    # 180,000 generator columns at 2**61 - 1 make 60,000 chunks, more than
    # one raw sum holds: the pass takes recombine's reduced chunk sum
    f = PrimeField((1 << 61) - 1)
    rng = f.rng(12)
    G, H = f.rand_vec(rng, (2, 2, 180000))
    A = THMatrix(f, ToeplitzCore(f, 2, G, H), ToeplitzCore.zero(f, 2))
    V = f.rand_vec(rng, (2, 3))
    C = _ref.mat_mul(f, G, H.T)                 # C - Z C Z^T = G H^T
    C[1, 1] = (int(C[1, 1]) + int(C[0, 0])) % f.p
    assert np.array_equal(A.matvec_block(V), _ref.mat_mul(f, C, V))


@pytest.mark.parametrize("p", (BIG_PRIMES[0], (1 << 61) - 1, BIG_PRIMES[-1]))
@pytest.mark.parametrize("n", (4, 5, 937, 938))
@pytest.mark.parametrize("chunks", (1, 3))
def test_products_at_limb_plan_boundaries(p, n, chunks):
    # all-(p-1) operands put every diagonal near its bound, at each limb
    # plan boundary of 2**61 - 1 (21-bit limbs up to n = 4, 16-bit up to
    # 937, 13-bit beyond), in one chunk and summed raw over three; above
    # 2**31 the 16- and 13-bit plans recombine two diagonals per step.
    # (p - 1)**2 = 1 mod p, so coefficient m is T times the number of its
    # terms, min(m + 1, 2n - 1 - m, n).
    f = PrimeField(p)
    T = (chunks - 1) * f.fft_limbs(n, n)[2] + 1
    a = np.full((1, T, n), p - 1, dtype=np.int64)
    b = np.full((T, 1, n), p - 1, dtype=np.int64)
    m = np.arange(2 * n - 1)
    want = T * np.minimum(np.minimum(m + 1, 2 * n - 1 - m), n) % p
    assert f.conv_matmul(a, b, 2 * n - 1)[0, 0].tolist() == want.tolist()


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 61) - 1, BIG_PRIMES[-1]))
def test_kernel_dtype_contract(p):
    # the product step, a structured pass, the kernel and the public block
    # products return int64 residues for every p
    f = PrimeField(p)
    rng = f.rng(5)
    a = f.rand_vec(rng, (6, 9)).reshape(2, 3, 9)
    b = f.rand_vec(rng, (3, 9)).reshape(3, 1, 9)
    fa = f.fft_spectra(a, 9, 9, axis=1)
    step = ProductStep(p, 9, 9, 1, 2, fa.shape[2], 1, 17)
    raw = step.run(step.bind(f.fft_spectra(b[None], 9, 9, axis=1)),
                   step.layout([fa]))[0]
    assert raw.dtype == np.int64 and raw.min() >= 0 and raw.max() < p
    A = random_structured(f, 9, 2, 1, 5)
    V = f.rand_vec(rng, (9, 2))
    outs = (f.conv_matmul(a, b, 17), A.matvec_block(V), A.matvec_t_block(V),
            *A.matvec_pair(V, V))
    assert np.array_equal(outs[0], raw)
    for got, want in zip(A._pass([V, V], 0, None), outs[3:]):
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for out in outs:
        assert out.dtype == np.int64


def _edges(p):
    """0, 1 and the residues at the edges of p and of 31-bit halves."""
    return sorted({x for x in (0, 1, p - 1, p - 2, (p - 1) // 2, (1 << 31) - 1,
                               1 << 31, (1 << 31) + 1, p - (1 << 31)) if 0 <= x < p})


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 31) + 11, (1 << 61) - 1,
                               (1 << 62) - 57))
def test_exact_product_vs_python_ints(p):
    # vmul, submul and dot against Python ints, with every warning an
    # error: factors are the edges and their negatives (a difference of
    # residues lies in (-p, p)), every pair broadcast, each one as a Python
    # int and as a 0-d array against the rest and against random residues,
    # random pairs, empty operands, and a dot over more terms than one
    # float matmul sums
    f = PrimeField(p)
    rng = f.rng(p % 997)
    edges = _edges(p)
    signed = edges + [-e for e in edges if e]
    x, r = np.array(signed, dtype=np.int64), f.rand_vec(rng, 500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f.vmul(x[:, None], x).tolist() == [[a * b % p for b in signed]
                                                  for a in signed]
        assert f.submul(r[:len(x), None], x[::-1, None], x).tolist() == [
            [(a - c * b) % p for b in signed]
            for a, c in zip(r.tolist(), signed[::-1])]
        for c in signed:
            for scalar in (c, np.int64(c), np.array(c)):
                for y in (x, r):
                    ys = y.tolist()
                    assert f.vmul(y, scalar).tolist() == [c * b % p for b in ys]
                    assert f.vmul(scalar, y).tolist() == [c * b % p for b in ys]
                    assert f.submul(r[:len(y)], scalar, y).tolist() == [
                        (a - c * b) % p for a, b in zip(r.tolist(), ys)]
        e = f.asvec(edges)
        for c in edges:
            assert f.dot(e, f.asvec([c] * len(edges))) == c * sum(edges) % p
        s = f.rand_vec(rng, 500)
        assert f.vmul(r, s).tolist() == [a * b % p for a, b in zip(r.tolist(),
                                                                   s.tolist())]
        assert f.dot(r, s) == sum(a * b for a, b in zip(r.tolist(),
                                                        s.tolist())) % p
        assert f.dot(e, e) == sum(a * a for a in edges) % p
        empty = f.zeros(0)
        assert f.vmul(empty, p - 1).shape == f.submul(empty, 3, empty).shape == (0,)
        assert f.vmul(f.zeros((0, 3)), e[:3]).shape == (0, 3)
        assert f.dot(empty, empty) == 0
        k = (1 << 11) + 3
        top = np.full(k, p - 1, dtype=np.int64)
        assert f.dot(top, top) == k % p            # (p - 1)**2 = 1


@pytest.mark.parametrize("p", ((1 << 61) - 1, (1 << 62) - 57, P_NTT, 101,
                               (1 << 32) + 15, (1 << 40) - 87))
@pytest.mark.parametrize("a,k,b", [(1, 128, 256), (2, 3, 5), (1, 0, 4),
                                   (3, 2049, 2)])    # two float matmuls of k
def test_matmul_int64_vs_matmul(p, a, k, b):
    f = PrimeField(p)
    rng = f.rng(k + b)
    A = rng.integers(0, p, size=(a, k), dtype=np.int64)
    B = rng.integers(0, p, size=(k, b), dtype=np.int64)
    A[0] = p - 1                        # all-(p-1) row and column
    B[:, 0] = p - 1
    mine, theirs = MultCounter(), MultCounter()
    got = f.matmul_int64(A, B, mine)
    assert got.dtype == np.int64
    assert got.tolist() == _ref.mat_mul(f, A, B).tolist()
    assert np.array_equal(f.matmul(A, B, theirs), got)
    assert mine.mults == theirs.mults == a * k * b


def test_matmul_int64_long_sums():
    # the limb diagonals are reduced after each chunk of terms: at
    # 2**62 - 57 a middle diagonal of all-(p-1) inputs gains about 2**43
    # per term, so over 1.2 million terms unreduced sums would pass 2**63;
    # (p - 1)**2 = 1 mod p, so each entry is k mod p
    p = (1 << 62) - 57
    k = 1_200_000
    A = np.full((1, k), p - 1, dtype=np.int64)
    B = np.full((k, 2), p - 1, dtype=np.int64)
    assert PrimeField(p).matmul_int64(A, B).tolist() == [[k, k]]


# On each side of the longest k whose 16-bit split in `matmul` keeps
# k (p-1) (2**16-1) below 2**63 (65,537 and 69,906): A is all p - 1 and B
# the largest residue whose low 16 bits are all set, so the low half's sums
# reach that bound; past it the product goes to `matmul_int64`
@pytest.mark.parametrize("p,k,b", [
    ((1 << 31) - 1, 65_537, 0x7FFEFFFF), ((1 << 31) - 1, 65_538, 0x7FFEFFFF),
    (P_NTT, 69_906, 0x77FFFFFF), (P_NTT, 69_907, 0x77FFFFFF),
    ((1 << 31) - 1, 70_000, (1 << 31) - 2)])    # all p - 1: k mod p
def test_matmul_long_sums_below_2_31(p, k, b):
    A = np.full((1, k), p - 1, dtype=np.int64)
    B = np.full((k, 2), b, dtype=np.int64)
    counter = MultCounter()
    got = PrimeField(p).matmul(A, B, counter).tolist()
    assert got == [[k * (p - 1) * b % p] * 2]
    assert counter.mults == 2 * k


# Above 2**32 the high half of the split reaches (p-1) >> 16 > 2**16 - 1:
# all p - 1 puts the sums of `A @ hi` at k (p-1) ((p-1) >> 16), on each
# side of 2**63 (k = 32,767 and 32,768 at 2**32 + 15, 1 and 2 at 2**39 +
# 23); past it, and at 2**40 - 87 for every k, the product goes to
# `matmul_int64`.  (p - 1)**2 = 1 mod p, so each entry is k mod p
@pytest.mark.parametrize("p,k", [
    ((1 << 32) + 15, 32_767), ((1 << 32) + 15, 32_768),
    ((1 << 39) + 23, 1), ((1 << 39) + 23, 2), ((1 << 40) - 87, 2)])
def test_matmul_split_above_2_31(p, k):
    A = np.full((2, k), p - 1, dtype=np.int64)
    B = np.full((k, 3), p - 1, dtype=np.int64)
    assert PrimeField(p).matmul(A, B).tolist() == [[k % p] * 3] * 2


def test_one_off_products_leave_the_pass_buffer():
    # only structured passes work in the thread's buffer; a one-off product
    # works in memory of its own, so a large one leaves the buffer as it was
    f = PrimeField((1 << 61) - 1)
    A = random_structured(f, 16, 2, 1, 1)
    A.matvec(f.unit_vector(16, 0))
    before = _scratch.buffer
    rng = f.rng(9)
    a, b = f.rand_vec(rng, 4096), f.rand_vec(rng, 4096)
    want = _ref.schoolbook_mul(a[:64].tolist(), b[:64].tolist(), f.p)[:64]
    assert f.conv(a, b)[:64].tolist() == want
    f.matmul_int64(f.rand_vec(rng, (4, 3000)).astype(np.int64),
                   f.rand_vec(rng, (3000, 4)).astype(np.int64))
    assert _scratch.buffer is before
