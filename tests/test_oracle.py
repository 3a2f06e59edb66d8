import numpy as np
import pytest

from thpoly import (DenseMatrix, PrimeField, berlekamp_massey,
                    dense_charpoly, dense_minpoly, dense_to_structured,
                    displacement_rank, exhaustive_lfsr, from_toeplitz,
                    stein_displacement)
from thpoly.errors import GuardExceededError

import _ref

P_NTT = 2013265921


def rand_dense(field, n, seed):
    return DenseMatrix(field, field.rand_vec(field.rng(seed), (n, n)))


def test_charpoly_identity():
    f = PrimeField(101)
    eye = DenseMatrix(f, np.eye(3, dtype=np.int64))
    assert dense_charpoly(eye).to_list() == [100, 3, 98, 1]   # (x-1)^3


def test_charpoly_diag():
    f = PrimeField(101)
    d = DenseMatrix(f, np.diag([1, 2]).astype(np.int64))
    assert dense_charpoly(d).to_list() == [2, 98, 1]          # x^2 - 3x + 2


# the dense oracles at a small prime and at two primes above 2^31, where
# residue products split in 31-bit halves
ORACLE_PRIMES = (101, (1 << 61) - 1, (1 << 62) - 57)


def test_charpoly_vs_cofactor():
    for p in ORACLE_PRIMES:
        f = PrimeField(p)
        for seed in range(8):
            M = rand_dense(f, 5, seed)
            assert (dense_charpoly(M).to_list()
                    == _ref.cofactor_charpoly(p, M.rows.tolist()))


def test_charpoly_block_diagonal_product():
    f = PrimeField(101)
    rng = f.rng(30)
    for _ in range(10):
        na = int(rng.integers(1, 5))
        nb = int(rng.integers(1, 5))
        A = f.rand_vec(rng, (na, na))
        B = f.rand_vec(rng, (nb, nb))
        M = f.zeros((na + nb, na + nb))
        M[:na, :na] = A
        M[na:, na:] = B
        whole = dense_charpoly(DenseMatrix(f, M))
        parts = dense_charpoly(DenseMatrix(f, A)).mul(
            dense_charpoly(DenseMatrix(f, B)))
        assert whole == parts


def test_minpoly_identity_and_exchange():
    f = PrimeField(101)
    eye = DenseMatrix(f, np.eye(5, dtype=np.int64))
    assert dense_minpoly(eye).to_list() == [100, 1]
    J = DenseMatrix(f, np.eye(4, dtype=np.int64)[::-1].copy())
    assert dense_minpoly(J).to_list() == [100, 0, 1]          # x^2 - 1


def test_minpoly_divides_charpoly_and_annihilates():
    for p in ORACLE_PRIMES:
        f = PrimeField(p)
        for seed in range(6):
            M = rand_dense(f, 6, seed + 40)
            mp = dense_minpoly(M)
            cp = dense_charpoly(M)
            _, r = cp.divrem(mp)
            assert r.is_zero()
            value = _ref.poly_eval_matrix(p, mp.to_list(), M.rows.tolist())
            assert not any(any(row) for row in value)


def test_displacement_rank_facts():
    f = PrimeField(101)
    rng = f.rng(50)
    col = f.rand_vec(rng, 8)
    row = f.rand_vec(rng, 8)
    row[0] = col[0]
    T = DenseMatrix(f, from_toeplitz(f, col, row).reconstruct())
    assert displacement_rank(T) <= 2
    eye = DenseMatrix(f, np.eye(6, dtype=np.int64))
    assert displacement_rank(eye) == 1
    disp = stein_displacement(eye)
    assert disp.rows[0, 0] == 1 and int(disp.rows.sum()) == 1
    M = rand_dense(f, 8, 51)
    assert displacement_rank(M) == 8


def test_dense_to_structured_roundtrip():
    f = PrimeField(101)
    rng = f.rng(52)
    col = f.rand_vec(rng, 7)
    row = f.rand_vec(rng, 7)
    row[0] = col[0]
    T = DenseMatrix(f, from_toeplitz(f, col, row).reconstruct())
    assert dense_to_structured(T).alpha <= 2
    eye = DenseMatrix(f, np.eye(5, dtype=np.int64))
    assert dense_to_structured(eye).alpha == 1
    for seed in range(50):
        n = 4 + seed % 13
        M = rand_dense(f, n, seed + 60)
        back = dense_to_structured(M)
        assert np.array_equal(back.reconstruct(), M.rows)


def test_exhaustive_lfsr_examples():
    for p in (3, 5, 7):
        f = PrimeField(p)
        got = exhaustive_lfsr(f, [1, 1, 1], 2)
        assert got.to_list() == [p - 1, 1]                    # x - 1
    f5 = PrimeField(5)
    assert exhaustive_lfsr(f5, [0, 1, 0, 1], 3).to_list() == [4, 0, 1]


def test_exhaustive_lfsr_guard():
    with pytest.raises(GuardExceededError):
        exhaustive_lfsr(PrimeField(101), [1, 2, 3], 4)


def test_exhaustive_lfsr_cross_check_bm():
    f = PrimeField(5)
    rng = np.random.default_rng(80)
    for _ in range(30):
        seq = [int(x) for x in rng.integers(0, 5, size=8)]
        bm = berlekamp_massey(f, seq)
        if bm.degree <= 4:
            brute = exhaustive_lfsr(f, seq, 4)
            assert brute is not None and brute.degree == bm.degree


def test_minpoly_is_deterministic():
    f = PrimeField(101)
    M = rand_dense(f, 7, 90)
    assert dense_minpoly(M) == dense_minpoly(M)
