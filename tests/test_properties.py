"""Property tests: the structured algebra and charpoly against the dense
oracles.

Derandomized with a bounded example count, so every run draws the same
examples and the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thpoly import (DenseMatrix, MultCounter, PrimeField, charpoly_generic,
                    dense_charpoly, random_structured)
from thpoly.errors import NotGenericError

PRIMES = (3, 101, (1 << 31) - 1, 2013265921, (1 << 61) - 1)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 40),
       alpha_t=st.integers(0, 3), alpha_h=st.integers(0, 3),
       k=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
@example(p=101, n=7, alpha_t=0, alpha_h=0, k=2, seed=1)
@example(p=(1 << 61) - 1, n=1, alpha_t=3, alpha_h=3, k=0, seed=2)
def test_block_matvecs_match_dense(p, n, alpha_t, alpha_h, k, seed):
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    dense = A.reconstruct()
    V = f.rand_mat(f.rng(seed), (n, k))
    U = f.rand_mat(f.rng(seed + 1), (n, k))
    AV = f.matmul(dense, V)
    AtU = f.matmul(dense.T.copy(), U)
    apart = MultCounter()
    assert np.array_equal(A.matvec_block(V, apart), AV)
    assert np.array_equal(A.matvec_t_block(U, apart), AtU)
    pair = MultCounter()
    got_AV, got_AtU = A.matvec_pair(V, U, pair)
    assert np.array_equal(got_AV, AV) and np.array_equal(got_AtU, AtU)
    assert pair.mults == apart.mults


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
