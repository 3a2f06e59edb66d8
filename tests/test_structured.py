import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from thpoly import (MultCounter, PrimeField, THMatrix, ToeplitzCore,
                    compress_pair, core_multiply, core_power, flip_conjugate,
                    from_hankel, from_toeplitz, random_structured)
from thpoly.errors import (BadLengthError, CornerMismatchError,
                           DimensionMismatchError, LengthMismatchError,
                           TooLargeError)
from thpoly.kernel import (PassPlan, ProductStep, TransformStep, _scratch,
                           pass_plan)
from thpoly.linalg import det, rank, rank_factor, rref
from thpoly.structured import (KIND_HANKEL, KIND_TH, KIND_TOEPLITZ,
                               _up_block)

import _ref

P_NTT = 2013265921
# tiny, non-NTT, 31-bit NTT and split-product (above 2^31) primes
EDGE_PRIMES = (3, 101, (1 << 31) - 1, P_NTT, (1 << 61) - 1)


def dense_displacement_down(field, M):
    out = field.zeros(M.shape)
    out[1:, 1:] = M[:-1, :-1]
    return (M - out) % field.p


def exchange(n):
    return np.eye(n, dtype=np.int64)[::-1].copy()


# -- ingestion -----------------------------------------------------------------


def test_from_toeplitz_identity():
    f = PrimeField(101)
    eye = from_toeplitz(f, [1, 0, 0, 0], [1, 0, 0, 0])
    assert eye.P.width == 1                     # D(I) = e1 e1^T
    assert np.array_equal(eye.P.G[:, 0], f.unit_vector(4, 0))
    assert np.array_equal(eye.P.H[:, 0], f.unit_vector(4, 0))
    assert np.array_equal(eye.reconstruct(), np.eye(4, dtype=np.int64))


def test_from_toeplitz_shift():
    f = PrimeField(101)
    Z = from_toeplitz(f, [0, 1, 0, 0], [0, 0, 0, 0])
    assert np.array_equal(Z.reconstruct(), np.diag([1, 1, 1], -1))


def test_from_toeplitz_random_entrywise():
    f = PrimeField(101)
    rng = f.rng(0)
    col = [int(x) for x in f.rand_vec(rng, 6)]
    row = [int(x) for x in f.rand_vec(rng, 6)]
    row[0] = col[0]
    dense = from_toeplitz(f, col, row).reconstruct()
    for i in range(6):
        for j in range(6):
            assert dense[i, j] == (col[i - j] if i >= j else row[j - i])


def test_from_toeplitz_corner_mismatch():
    f = PrimeField(101)
    with pytest.raises(CornerMismatchError):
        from_toeplitz(f, [1, 2], [3, 4])


def test_from_hankel_unit_corner():
    f = PrimeField(101)
    H = from_hankel(f, [1, 0, 0, 0, 0, 0, 0])
    dense = H.reconstruct()
    assert dense[0, 0] == 1 and int(dense.sum()) == 1
    assert H.kind == KIND_HANKEL


def test_from_hankel_all_ones():
    f = PrimeField(101)
    H = from_hankel(f, [1] * 9)
    assert np.array_equal(H.reconstruct(), np.ones((5, 5), dtype=np.int64))
    assert H.Q.width <= 2


def test_from_hankel_random_entrywise():
    f = PrimeField(101)
    rng = f.rng(1)
    v = [int(x) for x in f.rand_vec(rng, 9)]
    dense = from_hankel(f, v).reconstruct()
    for i in range(5):
        for j in range(5):
            assert dense[i, j] == v[i + j]


def test_from_hankel_bad_length():
    with pytest.raises(BadLengthError):
        from_hankel(PrimeField(101), [1, 2, 3, 4])


def test_random_structured_kinds_and_determinism():
    f = PrimeField(101)
    assert random_structured(f, 8, 2, 0, 1).kind == KIND_TOEPLITZ
    assert random_structured(f, 8, 0, 2, 1).kind == KIND_HANKEL
    assert random_structured(f, 8, 1, 1, 1).kind == KIND_TH
    zero = random_structured(f, 8, 0, 0, 1)
    assert zero.alpha == 0
    assert not zero.reconstruct().any()
    a = random_structured(f, 8, 2, 1, 42)
    b = random_structured(f, 8, 2, 1, 42)
    for x, y in ((a.P.G, b.P.G), (a.P.H, b.P.H), (a.Q.G, b.Q.G), (a.Q.H, b.Q.H)):
        assert np.array_equal(x, y)


# -- compression -----------------------------------------------------------------


def test_compress_duplicate_columns():
    f = PrimeField(101)
    n = 5
    e1 = f.unit_vector(n, 0)
    G = np.stack([e1, e1], axis=1)
    rng = f.rng(2)
    h1 = f.rand_vec(rng, n)
    h2 = f.rand_vec(rng, n)
    H = np.stack([h1, h2], axis=1)
    G2, H2 = compress_pair(f, G, H)
    assert G2.shape[1] == 1
    assert np.array_equal(G2[:, 0], e1)
    assert np.array_equal(H2[:, 0], (h1 + h2) % f.p)


def test_compress_drops_zero_column():
    f = PrimeField(101)
    rng = f.rng(3)
    G = f.rand_vec(rng, (6, 2))
    H = np.stack([f.rand_vec(rng, 6), f.zeros(6)], axis=1)
    G2, H2 = compress_pair(f, G, H)
    assert G2.shape[1] == 1
    assert np.array_equal(f.matmul(G2, H2.T), f.matmul(G, H.T))


def test_compress_planted_rank():
    f = PrimeField(101)
    rng = f.rng(4)
    G0 = f.rand_vec(rng, (9, 3))
    G = f.matmul(G0, f.rand_vec(rng, (3, 6)))
    H = f.rand_vec(rng, (9, 6))
    G2, H2 = compress_pair(f, G, H)
    prod = f.matmul(G, H.T)
    assert G2.shape[1] == rank(f, prod) == 3
    assert np.array_equal(f.matmul(G2, H2.T), prod)


def _rref_reference(p, rows):
    """Gauss-Jordan on lists, and one product per entry that changes: the
    pivot's inverse, columns c.. of the pivot row, then columns c.. of
    each other row with a nonzero in the pivot column."""
    R = [list(map(int, r)) for r in rows]
    cols = len(R[0]) if R else 0
    inv_cost = MultCounter()
    PrimeField(p).inv(1, inv_cost)
    pivots, charge, r = [], 0, 0
    for c in range(cols):
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        charge += inv_cost.mults + cols - c
        for j in range(len(R)):
            if j != r and R[j][c]:
                f = R[j][c]
                R[j][c:] = [(x - f * y) % p for x, y in zip(R[j][c:], R[r][c:])]
                charge += cols - c
        pivots.append(c)
        r += 1
    return R[:r], pivots, charge


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 61) - 1))
def test_rref_charges_the_entries_that_change(p):
    f = PrimeField(p)
    rng = f.rng(9)
    for shape, planted in (((5, 7), 3), ((7, 4), 4), ((6, 6), 2), ((3, 8), 3)):
        M = f.matmul(f.rand_vec(rng, (shape[0], planted)),
                     f.rand_vec(rng, (planted, shape[1])))
        M[:, 1] = 0                         # a column without a pivot
        counter = MultCounter()
        R, pivots = rref(f, M, counter)
        want, want_pivots, charge = _rref_reference(p, M.tolist())
        assert R.dtype == np.int64 and R.tolist() == want
        assert pivots == want_pivots and len(pivots) == rank(f, M)
        assert counter.mults == charge


def _subset_charge(f, M):
    counter = MultCounter()
    rref(f, M[M.shape[0] - M.shape[1]:], counter)
    return counter.mults


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 61) - 1))
def test_rank_factor_certifies_full_rank_on_the_last_rows(p):
    # a tall full-rank factor comes back as (M, I), byte for byte the full
    # elimination's result, charged only the r x r elimination of its
    # last r rows; compress_pair then returns the pair unchanged
    f = PrimeField(p)
    rng = f.rng(10)
    for n, r in ((12, 4), (10, 9), (30, 7)):
        G, H = f.rand_vec(rng, (n, r)), f.rand_vec(rng, (n, r))
        R_full, pivots = rref(f, G)
        counter = MultCounter()
        C, R = rank_factor(f, G, counter)
        assert pivots == list(range(r)) and C is not G
        for got, want in ((C, G[:, pivots]), (R, R_full)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert counter.mults == _subset_charge(f, G)
        counter = MultCounter()
        G2, H2 = compress_pair(f, G, H, counter)
        assert np.array_equal(G2, G) and np.array_equal(H2, H)
        assert G2.dtype == H2.dtype == np.int64
        assert counter.mults == _subset_charge(f, G) + _subset_charge(f, H)


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 61) - 1))
def test_rank_factor_falls_back_on_singular_last_rows(p):
    # full column rank, but the last r rows are zero: the subset check
    # fails, the full elimination runs, and the pair is still minimal
    f = PrimeField(p)
    rng = f.rng(11)
    n, r = 12, 4
    G, H = f.rand_vec(rng, (n, r)), f.rand_vec(rng, (n, r))
    G[n - r:] = 0
    full = MultCounter()
    R_full, pivots = rref(f, G, full)
    counter = MultCounter()
    C, R = rank_factor(f, G, counter)
    assert np.array_equal(C, G) and np.array_equal(R, R_full)
    assert counter.mults == _subset_charge(f, G) + full.mults
    G2, H2 = compress_pair(f, G, H)
    prod = f.matmul(G, H.T)
    assert G2.shape[1] == rank(f, prod) == r
    assert np.array_equal(f.matmul(G2, H2.T), prod)


@pytest.mark.parametrize("n, r, planted", ((4, 7, 4), (6, 6, 3)))
def test_rank_factor_square_or_wide_input_takes_no_shortcut(n, r, planted):
    # r > n: no r-row subset exists; r = n: the subset is M itself; so
    # only the full elimination runs, once, whatever the rank
    f = PrimeField(101)
    rng = f.rng(12)
    G = f.matmul(f.rand_vec(rng, (n, planted)), f.rand_vec(rng, (planted, r)))
    H = f.rand_vec(rng, (n, r))
    full = MultCounter()
    R_full, pivots = rref(f, G, full)
    counter = MultCounter()
    C, R = rank_factor(f, G, counter)
    assert counter.mults == full.mults
    assert np.array_equal(C, G[:, pivots]) and np.array_equal(R, R_full)
    G2, H2 = compress_pair(f, G, H)
    prod = f.matmul(G, H.T)
    assert G2.shape[1] == rank(f, prod) == planted
    assert np.array_equal(f.matmul(G2, H2.T), prod)


def _det_stack(f, b):
    # scattered zeros; then a zero leading pivot (a row swap), a repeated
    # row and a zero column (singular) and a zero matrix among live ones
    rng = f.rng(40 + b)
    A = f.rand_vec(rng, (7, b, b))
    A[rng.random(A.shape) < 0.3] = 0
    A[1, 0, 0] = 0
    A[1, b - 1, 0] = 1
    A[2, b - 1] = A[2, 0]
    A[3] = 0
    A[4, :, b - 1] = 0
    return A


@pytest.mark.parametrize("p, charge", ((3, 90), (101, 334), ((1 << 61) - 1, 2730)))
def test_det_stack_vs_permutation_expansion(p, charge):
    f = PrimeField(p)
    for b in (1, 2, 3, 4):
        A = _det_stack(f, b)
        counter = MultCounter()
        got = det(f, A, counter)
        assert got.dtype == np.int64
        assert got.tolist() == [_ref.perm_det(M.tolist(), p) for M in A]
        assert got[3] == got[4] == 0 and np.count_nonzero(got) >= 2
    # the b = 4 stack's charge is the sum of its matrices' charges when
    # each is eliminated on its own
    assert counter.mults == charge


def test_det_row_swaps_flip_the_sign_and_shapes_are_checked():
    f = PrimeField(101)
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]            # one swap: -1
    cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]           # two swaps: +1
    diag = [[2, 0, 0], [0, 3, 0], [0, 0, 4]]
    stack = np.stack([f.asvec(M) for M in (swap, cycle, diag)])
    assert det(f, stack).tolist() == [100, 1, 24]
    assert det(f, f.zeros((0, 3, 3))).tolist() == []
    with pytest.raises(DimensionMismatchError):
        det(f, f.zeros((2, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        det(f, f.zeros((2, 2)))


# -- reconstruction ----------------------------------------------------------------


def test_reconstruct_unit_core_and_exchange():
    f = PrimeField(101)
    assert np.array_equal(ToeplitzCore.identity(f, 5).dense(),
                          np.eye(5, dtype=np.int64))
    J = THMatrix(f, ToeplitzCore.zero(f, 5), ToeplitzCore.identity(f, 5))
    assert np.array_equal(J.reconstruct(), exchange(5))


def test_reconstruct_displacement_identity():
    f = PrimeField(101)
    A = random_structured(f, 6, 3, 0, 7)
    core = A.P
    disp = dense_displacement_down(f, core.dense())
    assert np.array_equal(disp, f.matmul(core.G, core.H.T))


@pytest.mark.parametrize("p", [3, 101, P_NTT, (1 << 61) - 1])
def test_dense_is_sum_of_triangular_toeplitz_products(p):
    # C = sum_j L(g_j) U(h_j), built entrywise from its definition
    f = PrimeField(p)
    for n, alpha in ((1, 1), (2, 0), (5, 3), (17, 2)):
        A = random_structured(f, n, alpha, 0, n + alpha)
        G, H = A.P.G, A.P.H
        want = [[sum(int(G[i - t, j]) * int(H[c - t, j])
                     for j in range(alpha) for t in range(min(i, c) + 1)) % p
                 for c in range(n)] for i in range(n)]
        assert A.P.dense().tolist() == want


def test_reconstruct_guard():
    f = PrimeField(101)
    big = random_structured(f, 4097, 0, 0, 0)
    with pytest.raises(TooLargeError):
        big.reconstruct()


# -- matvec -------------------------------------------------------------------------


def test_matvec_identity_and_shift():
    f = PrimeField(101)
    eye = THMatrix.identity(f, 4)
    assert np.array_equal(eye.matvec([1, 2, 3, 4]), np.asarray([1, 2, 3, 4]))
    Z = from_toeplitz(f, [0, 1, 0, 0], [0, 0, 0, 0])
    assert list(Z.matvec([1, 2, 3, 4])) == [0, 1, 2, 3]


# All residues p-1, the largest limbs the float-FFT kernel sees.  At the
# 31-bit primes n = 256 sums 8 generators per inverse transform (widths 8
# and 9 straddle a chunk), n = 1719 is the largest n with 16-bit limbs (one
# generator per transform) and n = 1720 takes 11-bit limbs.  At 2^61 - 1
# and 2^62 - 57 n = 4 takes 21-bit limbs, n = 5 .. 937
# 16-bit limbs (n = 128 sums 10 generators per transform) and n = 938
# 13-bit limbs; see tests/test_field.py::test_fft_limbs_pins.  (2^62 - 57
# shares 2^61 - 1's plans, so its rows stop short of the slow dense
# products at n = 937 and 938.)  Rows are
# (p, n, width of P, width of Q, k).  The Hankel-only rows (P width 0) put
# every column through the conjugated, J-folded spectra at each limb-plan
# and chunk boundary; n = 256 is a power of two, where the FFT size is
# exactly 2n and the correlation window tightest.
WORST_CASES = ((3, 1, 1, 1, 2), (3, 256, 2, 2, 2), (3, 256, 0, 2, 2),
               (3, 16, 0, 0, 2), (3, 16, 2, 2, 0)) + tuple(
    (p, n, width, width, k) for p in (P_NTT, (1 << 31) - 1)
    for n, width, k in ((1, 2, 2), (256, 8, 1), (256, 9, 2), (1719, 2, 2),
                        (1720, 2, 1), (16, 0, 2), (16, 2, 0))) + tuple(
    (p, n, 0, width, k) for p in (P_NTT, (1 << 31) - 1)
    for n, width, k in ((256, 9, 2), (1719, 2, 2), (1720, 2, 1))) + tuple(
    ((1 << 61) - 1, n, width, width, k)
    for n, width, k in ((4, 2, 2), (5, 2, 2), (128, 10, 1), (128, 11, 2),
                        (937, 2, 2), (938, 2, 1))) + tuple(
    ((1 << 61) - 1, n, 0, width, k)
    for n, width, k in ((4, 2, 2), (5, 2, 2), (128, 11, 2), (937, 2, 2),
                        (938, 2, 1))) + tuple(
    ((1 << 62) - 57, n, 0, width, k)
    for n, width, k in ((4, 2, 2), (5, 2, 2), (128, 11, 2)))


def test_matvec_vs_dense():
    f = PrimeField(P_NTT)
    A = random_structured(f, 16, 2, 2, 8)
    dense = A.reconstruct()
    v = f.rand_vec(f.rng(9), 16)
    assert np.array_equal(A.matvec(v), f.matvec_dense(dense, v))
    assert np.array_equal(A.matvec_t(v), f.matvec_dense(dense.T.copy(), v))
    block = f.rand_vec(f.rng(10), (16, 3))
    assert np.array_equal(A.matvec_block(block), f.matmul(dense, block))
    assert np.array_equal(A.matvec_t_block(block),
                          f.matmul(dense.T.copy(), block))
    with pytest.raises(LengthMismatchError):
        A.matvec([1, 2, 3])
    with pytest.raises(LengthMismatchError):
        A.matvec_pair(block, block[:15])
    # unequal widths: the narrower block is padded inside the pass only
    apart, pair = MultCounter(), MultCounter()
    got = A.matvec_pair(block, block[:, :2], pair)
    assert np.array_equal(got[0], A.matvec_block(block, apart))
    assert np.array_equal(got[1], A.matvec_t_block(block[:, :2], apart))
    assert got[1].shape == (16, 2) and pair.mults == apart.mults
    for p, n, width_p, width_q, k in WORST_CASES:
        f = PrimeField(p)
        P, Q = (ToeplitzCore(f, n, G, G) for G in
                (np.full((n, width), p - 1, dtype=np.int64)
                 for width in (width_p, width_q)))
        A = THMatrix(f, P, Q)
        dense = A.reconstruct()
        block = np.full((n, k), p - 1, dtype=np.int64)
        want = f.matmul(dense, block), f.matmul(dense.T.copy(), block)
        pair = A.matvec_pair(block, block)
        for out, M in ((A.matvec_block(block), want[0]), (pair[0], want[0]),
                       (A.matvec_t_block(block), want[1]), (pair[1], want[1])):
            assert out.shape == (n, k) and out.dtype == np.int64
            assert np.array_equal(out, M), (p, n, width_p, width_q, k)


def test_matvec_block_matches_columns_small_field():
    # columns and block run the same kernel, so both face the dense product
    f = PrimeField(101)
    A = random_structured(f, 9, 2, 1, 11)
    V = f.rand_vec(f.rng(12), (9, 4))
    want = f.matmul(A.reconstruct(), V)
    assert np.array_equal(A.matvec_block(V), want)
    cols = np.stack([A.matvec(V[:, c]) for c in range(4)], axis=1)
    assert np.array_equal(cols, want)


# Mults charged for one A v and one A^T v, 2 * alpha * conv_charge(n, n),
# written out as numbers so that any change to the charge shows.
MATVEC_PINS = (
    (101, 1, 1, 1, 4),                  # n = 1, non-NTT prime
    (P_NTT, 1, 2, 0, 8),                # n = 1 at an NTT prime
    (101, 9, 2, 1, 486),                # non-NTT prime
    ((1 << 61) - 1, 7, 2, 1, 294),      # above 2^31
    (P_NTT, 16, 2, 2, 2432),            # NTT prime
    (P_NTT, 16, 3, 0, 1824),            # zero-width Q
    (101, 5, 0, 2, 100),                # zero-width P
    ((1 << 61) - 1, 5, 0, 0, 0),        # zero matrix
)


@pytest.mark.parametrize("p,n,alpha_t,alpha_h,mults", MATVEC_PINS)
def test_matvec_is_width_one_block(p, n, alpha_t, alpha_h, mults):
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, n + alpha_t)
    dense = A.reconstruct()
    v = f.rand_vec(f.rng(3), n)
    assert mults == 2 * A.alpha * f.conv_charge(n, n)
    for apply, block, M in ((A.matvec, A.matvec_block, dense),
                            (A.matvec_t, A.matvec_t_block, dense.T.copy())):
        counter = MultCounter()
        out = apply(v, counter)
        assert counter.mults == mults
        assert out.shape == (n,) and out.dtype == np.int64
        assert np.array_equal(out, f.matvec_dense(M, v))
        assert np.array_equal(out, block(v.reshape(n, 1))[:, 0])
    with pytest.raises(LengthMismatchError):
        A.matvec_t(f.zeros(n + 1))


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 61) - 1))
@pytest.mark.parametrize("alpha_t,alpha_h", ((2, 1), (2, 0), (0, 2), (3, 3)))
def test_one_kernel_pass_per_product(monkeypatch, p, alpha_t, alpha_h):
    # every structured product is one two-stage pass: two kernel product
    # steps however many chunks its generator columns fill, and two
    # transforms (the input blocks and the stage-1 result) once the
    # matrix's generators have been transformed, which happens once: one
    # transform each of the stacked H and of the stacked G columns.  A new
    # pass shape builds one plan and a repeated one none, a transposed
    # product sharing its plan; a matrix lays its spectra out for both
    # stages on its first pass only (two layouts), and a repeated pass
    # still transforms only its inputs.
    f = PrimeField(p)
    calls = {"transform": 0, "product": 0, "layout": 0}
    for name, owner, attr in (("transform", TransformStep, "run"),
                              ("product", ProductStep, "run"),
                              ("layout", ProductStep, "layout")):
        def counting(*args, _kernel=getattr(owner, attr), _name=name, **kwargs):
            calls[_name] += 1
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counting)
    pass_plan.cache_clear()

    def run(product):
        for name in calls:
            calls[name] = 0
        misses = pass_plan.cache_info().misses
        product()
        calls["plan"] = pass_plan.cache_info().misses - misses
        return calls["product"], calls["transform"]

    n = 16
    A = random_structured(f, n, alpha_t, alpha_h, 5)
    cores = [c for c in (A.P, A.Q) if c.width]
    core = cores[0]
    V = f.rand_vec(f.rng(6), (n, 2))
    first, layouts = 4, 2                       # + S_H and S_G
    for product, plans in ((lambda: A.matvec_block(V), 1),
                           (lambda: A.matvec_block(V), 0),
                           (lambda: A.matvec_t_block(V), 0),
                           (lambda: A.matvec_pair(V, V), 1),
                           (lambda: A.matvec_pair(V, V[:, :1]), 0),
                           (lambda: A.matvec_t_block(V), 0)):
        assert run(product) == (2, first)
        assert (calls["plan"], calls["layout"]) == (plans, layouts)
        first, layouts = 2, 0
    # a Toeplitz-like matrix reads its core's spectra, and the swapped
    # core transforms its own; a matrix with J-flipped columns keeps its own
    first = 2 if A.Q.width == 0 else 4
    zero = ToeplitzCore.zero(f, n)
    for product in (lambda: THMatrix(f, core, zero).matvec_block(V),
                    lambda: THMatrix(f, core.swapped(), zero).matvec_block(V)):
        assert run(product) == (2, first) and calls["layout"] == 2
        first = 4
    # wide generators: several chunks of columns, still one pass each
    # (p = 101 sums millions of terms per transform, so it never chunks)
    n = 256
    W = random_structured(f, n, 5 * alpha_t, 5 * alpha_h, 7)
    wide = f.fft_limbs(n, n)[2] < W.alpha
    assert wide == (p != 101)
    V = f.rand_vec(f.rng(8), (n, 2))
    W.matvec_block(V)
    for product in (lambda: W.matvec_block(V), lambda: W.matvec_t_block(V),
                    lambda: W.matvec_pair(V, V)):
        assert run(product) == (2, 2)
    # the algebra: core_power's s - 1 passes advancing both Krylov blocks
    # (the first takes e_n too), one for flip_conjugate, two for
    # core_multiply; each pass transforms only its input blocks and the
    # stage-1 result, since the core's spectra are kept
    s = 5
    assert run(lambda: core_power(core, s)) == (2 * (s - 1), 2 * (s - 1))
    assert (calls["plan"], calls["layout"]) == (1, 2)
    assert run(lambda: flip_conjugate(core)) == (2, 2)
    assert run(lambda: core_multiply(core, core)) == (4, 4)


def test_giant_step_transient_memory():
    # the kernel's limb pairs stay within its slabs: one warm giant step of
    # a BSGS minpoly at n = 256 (B = A^23 of width 68) peaks where stage 2
    # transforms the stage-1 result, at 1,031,584 traced bytes; the limb
    # pairs of the whole stage-2 product at once would add 1.18 MB
    f = PrimeField(P_NTT)
    B = random_structured(f, 256, 2, 0, 1).power(23)
    W = f.rand_vec(f.rng(2), (256, 1))
    B.matvec_t_block(W)
    tracemalloc.start()
    try:
        B.matvec_t_block(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert B.alpha == 68 and peak <= 1_031_584


def test_pair_pass_transient_memory():
    # a warm pair pass of a block charpoly (T+H-like n = 64, widths [4|3])
    # works in the thread's pass buffer: its traced peak is the parent
    # commit's 220,784 bytes at most (5,249 now: the products it returns)
    f = PrimeField(P_NTT)
    A = random_structured(f, 64, 2, 1, 3)
    V, U = f.rand_vec(f.rng(1), (64, 4)), f.rand_vec(f.rng(2), (64, 3))
    A.matvec_pair(V, U)
    tracemalloc.start()
    try:
        A.matvec_pair(V, U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 220_784


@pytest.mark.parametrize("p", (101, P_NTT, (1 << 61) - 1))
def test_pass_plans_vs_dense(p):
    # every pass shape against the dense product: both directions, pairs of
    # unequal widths either way round, a repeated shape and seven shapes in
    # all; a pass returns int64 residues for every p
    f = PrimeField(p)
    rng = f.rng(p % 97)
    for n, alpha_t, alpha_h in ((1, 1, 1), (9, 2, 1), (17, 0, 2), (33, 3, 0)):
        A = random_structured(f, n, alpha_t, alpha_h, n + alpha_t)
        M = A.reconstruct()
        Mt = M.T.copy()
        for widths in ((3, 1), (1, 3), (2, 2), (3, 1), (1,), (4,), (2, 5)):
            blocks = [f.rand_vec(rng, (n, w)) for w in widths]
            for first in range(3 - len(blocks)):
                out = A._pass(blocks, first, None)
                for i, (X, Y) in enumerate(zip(blocks, out)):
                    want = f.matmul(M if first + i == 0 else Mt, X)
                    assert Y.dtype == np.int64, (n, widths)
                    assert np.array_equal(Y, want), (n, widths)
        # the laid-out spectra are views of the matrix's kept spectra:
        # stage 1 of (S_H, S_G), stage 2 of (S_G, S_H)
        one, two = A._layout
        S_H, S_G = A.spectra()
        for part, S in zip(one + two, (S_H, S_G, S_G, S_H)):
            assert np.shares_memory(part, S)


def test_one_layout_per_matrix(monkeypatch):
    # a matrix lays its spectra out once, on its first pass, for every
    # pass shape after it: both directions, pairs of unequal widths either
    # way round and seven shapes in all (`test_pass_plans_vs_dense` checks
    # their products)
    calls = []

    def counting(step, parts, _layout=ProductStep.layout):
        calls.append(step)
        return _layout(step, parts)
    monkeypatch.setattr(ProductStep, "layout", counting)
    f = PrimeField(P_NTT)
    A = random_structured(f, 17, 2, 1, 4)
    rng = f.rng(5)
    shapes = set()
    for widths in ((3, 1), (1, 3), (2, 2), (3, 1), (1,), (4,), (2, 5)):
        blocks = [f.rand_vec(rng, (17, w)) for w in widths]
        for first in range(3 - len(blocks)):
            shapes.add((first, len(blocks), max(widths)))
            A._pass(blocks, first, None)
    assert len(shapes) == 7 and len(calls) == 2


def test_pass_plans_belong_to_their_matrix(monkeypatch):
    # two matrices of one shape run the same plan, each on its own laid-out
    # spectra, and a fresh power made after another was dropped reads its
    # own spectra, not a dead one's
    seen = []

    def recording(plan, blocks, fixed, _call=PassPlan.__call__):
        seen.append((plan, fixed))
        return _call(plan, blocks, fixed)
    monkeypatch.setattr(PassPlan, "__call__", recording)
    f = PrimeField(P_NTT)
    A, B = (random_structured(f, 32, 2, 1, seed) for seed in (1, 2))
    V = f.rand_vec(f.rng(3), (32, 2))
    for M in (A, B, A, B):
        assert np.array_equal(M.matvec_block(V), f.matmul(M.reconstruct(), V))
    assert len(seen) == 4 and all(plan is seen[0][0] for plan, _ in seen)
    for M, (_, (one, two)) in zip((A, B, A, B), seen):
        assert one[0] is M._layout[0][0] and two[0] is M._layout[1][0]
    assert np.shares_memory(A._layout[0][0], A.spectra()[0])
    assert not np.shares_memory(A._layout[0][0], B.spectra()[0])
    T = random_structured(f, 32, 2, 0, 4)
    dense = T.reconstruct()
    for s in (5, 7, 5):
        P = T.power(s)
        P.matvec_t_block(V)
        want = f.matmul(_ref.mat_pow(f, dense, s).T.copy(), V)
        assert np.array_equal(P.matvec_t_block(V), want), s
        del P


def test_pass_buffer_grows_without_keeping_the_old():
    # a thread's pass buffer grows to its largest pass: the plans bound to
    # the smaller one are unbound, so it is freed, and bind again when run
    f = PrimeField(P_NTT)
    A, B = (random_structured(f, n, 2, 1, 1) for n in (16, 128))
    V = f.rand_vec(f.rng(4), (16, 2))
    want = f.matmul(A.reconstruct(), V)
    seen = {}

    def fresh_thread():
        A.matvec_block(V)
        small = weakref.ref(_scratch.buffer)
        B.matvec_block(f.rand_vec(f.rng(5), (128, 2)))
        gc.collect()
        seen["freed"] = small() is None
        seen["again"] = np.array_equal(A.matvec_block(V), want)

    thread = threading.Thread(target=fresh_thread)
    thread.start()
    thread.join()
    assert seen == {"freed": True, "again": True}


def test_shared_pass_plans_across_threads():
    # matrices of one shape share their plans, which each thread binds to
    # its own buffer, and a thread whose buffer grows unbinds its plans:
    # threads passing the same matrices at once, some growing their
    # buffers, still get the dense products
    f = PrimeField(P_NTT)
    mats = [random_structured(f, n, 2, 1, seed) for n, seed in
            ((24, 1), (24, 2), (96, 3))]
    cases = []
    for A in mats:
        V = f.rand_vec(f.rng(A.n), (A.n, 3))
        M = A.reconstruct()
        cases.append((A, V, f.matmul(M, V), f.matmul(M.T.copy(), V[:, :2])))
    bad = []

    def work(order):
        for _ in range(15):
            for i in order:
                A, V, AV, AtV = cases[i]
                got = A.matvec_pair(V, V[:, :2])
                if not (np.array_equal(got[0], AV) and np.array_equal(got[1], AtV)):
                    bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(order,)) for order in
                   ((0, 1), (1, 0, 2), (0, 2), (2, 1, 0), (1,))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert bad == []


# -- core algebra --------------------------------------------------------------------


def test_core_multiply_identity_cases():
    f = PrimeField(101)
    A = random_structured(f, 8, 2, 0, 13).P
    eye = ToeplitzCore.identity(f, 8)
    assert np.array_equal(core_multiply(A, eye).dense(), A.dense())
    assert np.array_equal(core_multiply(eye, A).dense(), A.dense())


def test_core_multiply_random_vs_dense():
    # down to n = 1 and zero-width (zero) cores on either side
    for p in EDGE_PRIMES:
        f = PrimeField(p)
        for n in (1, 2, 5, 17):
            for a in range(4):
                for b in range(4):
                    seed = 100 * n + 10 * a + b
                    A = random_structured(f, n, a, 0, seed).P
                    B = random_structured(f, n, b, 0, seed + 50).P
                    got = core_multiply(A, B)
                    case = (p, n, a, b)
                    assert np.array_equal(
                        got.dense(), f.matmul(A.dense(), B.dense())), case
                    assert got.width <= a + b + 1, case
                    assert got.G.dtype == got.H.dtype == np.int64, case


def test_flip_conjugate_cases():
    f = PrimeField(101)
    n = 8
    eye = ToeplitzCore.identity(f, n)
    assert np.array_equal(flip_conjugate(eye).dense(), np.eye(n, dtype=np.int64))
    Z = from_toeplitz(f, [0, 1] + [0] * (n - 2), [0] * n).P
    flipped = flip_conjugate(Z)
    assert np.array_equal(flipped.dense(), np.diag([1] * (n - 1), 1))
    # the closed form against J C J from the dense matrix, over tiny,
    # non-NTT, NTT and above-2^31 primes, down to n = 1 and width 0
    for p in (3, 101, P_NTT, (1 << 61) - 1):
        f = PrimeField(p)
        for n in (1, 2, 5, 17, 64):
            for width in range(4):
                C = random_structured(f, n, width, 0, 10 * n + width).P
                want = C.dense()[::-1, ::-1].copy()
                got = flip_conjugate(C)
                assert np.array_equal(got.dense(), want), (p, n, width)
                assert got.width == rank(f, dense_displacement_down(f, want))


def test_flip_conjugate_compresses_before_reversing():
    # compression commutes with the row reversal, so the generators are
    # those of compressing the reversed pair; unreversed, the pair's e_n
    # column reaches the last rows and `rank_factor`'s subset check passes
    f = PrimeField(P_NTT)
    n = 64
    en = f.unit_vector(n, n - 1).reshape(n, 1)
    A = random_structured(f, n, 2, 1, 66)
    for core in (A.P, A.Q):
        reversed_first = MultCounter()
        view = THMatrix(f, core, ToeplitzCore.zero(f, n))
        col, row = view.matvec_pair(en, en, reversed_first)
        col[n - 1, 0] = 0
        G = np.concatenate([-_up_block(f, core.G) % f.p, en, col], axis=1)
        H = np.concatenate([_up_block(f, core.H), row, en], axis=1)
        want = compress_pair(f, G[::-1], H[::-1], reversed_first)
        counter = MultCounter()
        got = flip_conjugate(core, counter)
        assert np.array_equal(got.G, want[0]) and np.array_equal(got.H, want[1])
        assert counter.mults < reversed_first.mults


def test_flip_conjugate_deterministic():
    f = PrimeField(101)
    C = random_structured(f, 8, 3, 0, 15).P
    a = flip_conjugate(C)
    b = flip_conjugate(C)
    assert np.array_equal(a.G, b.G) and np.array_equal(a.H, b.H)


# -- matrix algebra ---------------------------------------------------------------------


def test_add_examples():
    f = PrimeField(101)
    A = random_structured(f, 8, 2, 1, 16)
    zero = THMatrix.zero(f, 8)
    assert np.array_equal(A.add(zero).reconstruct(), A.reconstruct())
    diff = A - A
    assert diff.alpha == 0
    assert not diff.reconstruct().any()
    B = random_structured(f, 8, 1, 2, 17)
    assert np.array_equal((A + B).reconstruct(),
                          (A.reconstruct() + B.reconstruct()) % f.p)


def test_multiply_examples():
    f = PrimeField(101)
    A = random_structured(f, 8, 2, 1, 18)
    eye = THMatrix.identity(f, 8)
    assert np.array_equal(A.multiply(eye).reconstruct(), A.reconstruct())
    J = THMatrix(f, ToeplitzCore.zero(f, 8), ToeplitzCore.identity(f, 8))
    JJ = J.multiply(J)
    assert JJ.kind == KIND_TOEPLITZ
    assert np.array_equal(JJ.reconstruct(), np.eye(8, dtype=np.int64))
    B = random_structured(f, 8, 1, 1, 19)
    assert np.array_equal(A.multiply(B).reconstruct(),
                          f.matmul(A.reconstruct(), B.reconstruct()))
    with pytest.raises(DimensionMismatchError):
        A.multiply(THMatrix.identity(f, 9))


def test_power_examples():
    f = PrimeField(101)
    A = random_structured(f, 8, 2, 1, 20)
    assert np.array_equal(A.power(1).reconstruct(), A.reconstruct())
    Z = from_toeplitz(f, [0, 1] + [0] * 6, [0] * 8)
    Zn = Z.power(8)
    assert Zn.alpha == 0
    fifth = A.power(5).reconstruct()
    assert np.array_equal(fifth, _ref.mat_pow(f, A.reconstruct(), 5))
    # Hankel-like (widths 0-3, zero-width included) and T+H-like inputs
    shapes = [(0, h) for h in range(4)] + [(1, 1), (2, 1)]
    for p in EDGE_PRIMES:
        f = PrimeField(p)
        for n in (1, 2, 5, 17):
            for alpha_t, alpha_h in shapes:
                A = random_structured(f, n, alpha_t, alpha_h,
                                      100 * n + 10 * alpha_t + alpha_h)
                dense = A.reconstruct()
                for s in (1, 2, 3, 5):
                    B = A.power(s)
                    case = (p, n, alpha_t, alpha_h, s)
                    assert np.array_equal(B.reconstruct(),
                                          _ref.mat_pow(f, dense, s)), case
                    for core in (B.P, B.Q):
                        assert core.G.dtype == core.H.dtype == np.int64, case


@pytest.mark.parametrize("p", [101, P_NTT, (1 << 61) - 1])
def test_toeplitz_power_unrolled_vs_dense(p):
    f = PrimeField(p)
    for n in (1, 2, 5, 17, 33):
        for a in range(4):
            A = random_structured(f, n, a, 0, 100 * n + a)
            dense = A.reconstruct()
            for s in (1, 2, 3, 7, 11):
                B = A.power(s)
                assert B.kind == KIND_TOEPLITZ
                assert np.array_equal(B.reconstruct(), _ref.mat_pow(f, dense, s))
                if s == 1:
                    assert B.P is A.P              # returned as given
                else:
                    assert B.P.width <= min(s * (a + 1) - 1, n)


def test_toeplitz_power_cheaper_than_multiply_chain():
    f = PrimeField(P_NTT)
    A = random_structured(f, 64, 2, 0, 31)
    for s in (2, 7, 12):
        fast = MultCounter()
        B = A.power(s, fast)
        chain = MultCounter()
        C = A
        for _ in range(s - 1):
            C = C.multiply(A, chain)
        assert np.array_equal(B.reconstruct(), C.reconstruct())
        assert B.P.width == C.P.width
        assert fast.mults < chain.mults


def test_hankel_power_keeps_square_and_multiply(monkeypatch):
    import thpoly.structured as structured
    f = PrimeField(101)
    calls = []

    def counting_multiply(A, B, counter=None):
        calls.append(1)
        return core_multiply(A, B, counter)

    def refuse(*args, **kwargs):
        raise AssertionError("core_power used on a Hankel-like input")

    monkeypatch.setattr(structured, "core_multiply", counting_multiply)
    monkeypatch.setattr(structured, "core_power", refuse)
    H = random_structured(f, 9, 0, 2, 32)
    assert H.kind == KIND_HANKEL
    got = H.power(5).reconstruct()
    assert np.array_equal(got, _ref.mat_pow(f, H.reconstruct(), 5))
    assert calls


def test_transpose_examples():
    f = PrimeField(101)
    sym = from_toeplitz(f, [3, 1, 4, 1], [3, 1, 4, 1])
    assert np.array_equal(sym.transpose().reconstruct(), sym.reconstruct())
    Z = from_toeplitz(f, [0, 1, 0, 0], [0, 0, 0, 0])
    assert np.array_equal(Z.transpose().reconstruct(), np.diag([1, 1, 1], 1))
    A = random_structured(f, 9, 2, 2, 21)
    assert np.array_equal(A.transpose().reconstruct(), A.reconstruct().T)


def test_trace_examples():
    f = PrimeField(P_NTT)
    assert THMatrix.identity(f, 7).trace() == 7
    J8 = THMatrix(f, ToeplitzCore.zero(f, 8), ToeplitzCore.identity(f, 8))
    J7 = THMatrix(f, ToeplitzCore.zero(f, 7), ToeplitzCore.identity(f, 7))
    assert J8.trace() == 0 and J7.trace() == 1
    A = random_structured(f, 9, 2, 2, 22)
    assert A.trace() == int(np.trace(A.reconstruct()) % f.p)


def test_trace_small_prime_weights_reduce():
    f = PrimeField(7)
    A = random_structured(f, 9, 2, 1, 23)       # n > p exercises weight reduction
    assert A.trace() == int(np.trace(A.reconstruct()) % 7)


def test_toeplitz_displacement_rank_at_most_two():
    f = PrimeField(101)
    rng = f.rng(24)
    for _ in range(50):
        n = int(rng.integers(2, 33))
        col = f.rand_vec(rng, n)
        row = f.rand_vec(rng, n)
        row[0] = col[0]
        dense = from_toeplitz(f, col, row).reconstruct()
        assert rank(f, dense_displacement_down(f, dense)) <= 2


def test_big_modulus_int64_path():
    # p >= 2**31 keeps int64 residues end to end, with split products
    f = PrimeField((1 << 61) - 1)
    A = random_structured(f, 6, 2, 1, 25)
    dense = A.reconstruct()
    assert dense.dtype == A.P.G.dtype == np.int64
    v = f.rand_vec(f.rng(26), 6)
    assert np.array_equal(A.matvec(v), f.matvec_dense(dense, v))
    B = random_structured(f, 6, 1, 1, 27)
    assert np.array_equal(A.multiply(B).reconstruct(),
                          _ref.mat_mul(f, dense, B.reconstruct()))
    assert A.trace() == sum(np.diag(dense).tolist()) % f.p
