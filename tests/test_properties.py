"""Property tests: the block matvecs, the structured algebra (multiply,
power, transpose, flip_conjugate), minpoly and charpoly against the dense
oracles.

Derandomized with a bounded example count, so every run draws the same
examples and the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thpoly import (DenseMatrix, MultCounter, PrimeField, charpoly_generic,
                    dense_charpoly, dense_minpoly, flip_conjugate, minpoly,
                    random_structured)
from thpoly.errors import NotGenericError

PRIMES = (3, 101, (1 << 31) - 1, 2013265921, (1 << 61) - 1, (1 << 62) - 57)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 40),
       alpha_t=st.integers(0, 3), alpha_h=st.integers(0, 3),
       k=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(p=101, n=7, alpha_t=0, alpha_h=0, k=2, seed=1)
@example(p=(1 << 61) - 1, n=1, alpha_t=3, alpha_h=3, k=0, seed=2)
# Hankel-only at a power-of-two n: every column J-folded, FFT size 2n
@example(p=(1 << 62) - 57, n=32, alpha_t=0, alpha_h=2, k=2, seed=10)
@example(p=3, n=2, alpha_t=0, alpha_h=3, k=3, seed=11)
@example(p=101, n=1, alpha_t=2, alpha_h=1, k=1, seed=12)
@example(p=2013265921, n=3, alpha_t=1, alpha_h=2, k=2, seed=13)
@example(p=(1 << 31) - 1, n=5, alpha_t=0, alpha_h=1, k=3, seed=14)
def test_block_matvecs_match_dense(p, n, alpha_t, alpha_h, k, seed):
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    dense = A.reconstruct()
    V = f.rand_vec(f.rng(seed), (n, k))
    U = f.rand_vec(f.rng(seed + 1), (n, k))
    AV = f.matmul(dense, V)
    AtU = f.matmul(dense.T.copy(), U)
    apart = MultCounter()
    assert np.array_equal(A.matvec_block(V, apart), AV)
    assert np.array_equal(A.matvec_t_block(U, apart), AtU)
    pair = MultCounter()
    got_AV, got_AtU = A.matvec_pair(V, U, pair)
    assert np.array_equal(got_AV, AV) and np.array_equal(got_AtU, AtU)
    assert pair.mults == apart.mults


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 20),
       widths=st.tuples(*[st.integers(0, 3)] * 4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p=3, n=1, widths=(1, 1, 1, 1), seed=3)
@example(p=(1 << 61) - 1, n=6, widths=(0, 2, 3, 0), seed=4)
def test_algebra_matches_dense(p, n, widths, seed):
    # multiply, transpose and the J-conjugation of each core, through
    # reconstruct() against dense products
    f = PrimeField(p)
    A = random_structured(f, n, widths[0], widths[1], seed)
    B = random_structured(f, n, widths[2], widths[3], seed + 1)
    da, db = A.reconstruct(), B.reconstruct()
    assert np.array_equal(A.multiply(B).reconstruct(), f.matmul(da, db))
    assert np.array_equal(A.transpose().reconstruct(), da.T)
    for core in (A.P, A.Q, B.P, B.Q):
        assert np.array_equal(flip_conjugate(core).dense(), core.dense()[::-1, ::-1])


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 16),
       alpha_t=st.integers(0, 3), alpha_h=st.integers(0, 2),
       k=st.integers(1, 7), seed=st.integers(0, 2 ** 32 - 1))
@example(p=101, n=9, alpha_t=2, alpha_h=0, k=7, seed=5)    # core_power
@example(p=2013265921, n=9, alpha_t=1, alpha_h=1, k=6, seed=6)
@example(p=(1 << 31) - 1, n=1, alpha_t=0, alpha_h=2, k=3, seed=7)
@example(p=101, n=9, alpha_t=0, alpha_h=2, k=7, seed=5)    # squared, core_power
def test_power_matches_dense(p, n, alpha_t, alpha_h, k, seed):
    # square-and-multiply until the base has Q = 0, whose remaining power
    # takes the unrolled product rule (core_power): at once for a
    # Toeplitz-like matrix, after one squaring for a Hankel-like one
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    da = A.reconstruct()
    want = f.asvec(np.eye(n, dtype=np.int64))
    for _ in range(k):
        want = f.matmul(want, da)
    assert np.array_equal(A.power(k).reconstruct(), want)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 24),
       alpha_t=st.integers(0, 3), alpha_h=st.integers(0, 3),
       mode=st.sampled_from(("naive", "bsgs")), seed=st.integers(0, 2 ** 32 - 1))
@example(p=3, n=1, alpha_t=0, alpha_h=0, mode="bsgs", seed=1)     # A = 0
@example(p=(1 << 62) - 57, n=17, alpha_t=2, alpha_h=1, mode="naive", seed=8)
@example(p=(1 << 62) - 57, n=20, alpha_t=1, alpha_h=2, mode="bsgs", seed=9)
def test_minpoly_divides_oracle(p, n, alpha_t, alpha_h, mode, seed):
    # the projected sequence's minimal polynomial always divides A's, and
    # a certificate never rejects A's own; one that accepts a proper
    # divisor (probability at most p^-2) is not expected for p >= 101
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    oracle = dense_minpoly(DenseMatrix(f, A.reconstruct()))
    report = minpoly(A, seed, mode=mode)
    assert oracle.divrem(report.polynomial)[1].is_zero()
    if report.polynomial == oracle:
        assert report.verified
    elif p >= 101:
        assert not report.verified


@pytest.mark.parametrize("p", (101, 2013265921, (1 << 31) - 1, (1 << 61) - 1))
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(n=st.integers(1, 24), alpha_t=st.integers(0, 3),
       alpha_h=st.integers(0, 3), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_charpoly_is_oracle_or_not_generic(p, n, alpha_t, alpha_h, data, seed):
    # a Monte Carlo charpoly may give up, but never returns a wrong answer
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    beta = data.draw(st.integers(1, n), label="beta")
    try:
        c = charpoly_generic(A, beta, seed).polynomial
    except NotGenericError:
        return
    assert c == dense_charpoly(DenseMatrix(f, A.reconstruct()))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from((101, (1 << 61) - 1, (1 << 62) - 57)),
       n=st.integers(1, 32), alpha_t=st.integers(0, 3),
       alpha_h=st.integers(0, 3),
       algorithm=st.sampled_from(("naive", "bsgs", "charpoly")),
       trials=st.integers(1, 3), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
# p = 101, n = 40: the projected sequence gives a degree-39 divisor
@example(p=101, n=40, alpha_t=2, alpha_h=1, algorithm="naive", trials=2,
         data=None, seed=19)
@example(p=101, n=40, alpha_t=2, alpha_h=1, algorithm="bsgs", trials=1,
         data=None, seed=36)
@example(p=(1 << 61) - 1, n=1, alpha_t=1, alpha_h=1, algorithm="naive",
         trials=3, data=None, seed=3)
def test_verified_means_oracle(p, n, alpha_t, alpha_h, algorithm, trials,
                               data, seed):
    # the certificate rides the sequence's passes, with trials on the A^T
    # chain too, and is no weaker for it: whatever it accepts is A's own
    # minimal or characteristic polynomial
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    M = DenseMatrix(f, A.reconstruct())
    if algorithm == "charpoly":
        beta = data.draw(st.integers(1, n), label="beta") if data else 1
        try:
            c = charpoly_generic(A, beta, seed).polynomial
        except NotGenericError:
            return
        assert c == dense_charpoly(M)
        return
    report = minpoly(A, seed, mode=algorithm, verify_trials=trials)
    oracle = dense_minpoly(M)
    assert report.verified == (report.polynomial == oracle)
