"""Property tests: the structured algebra and charpoly against the dense
oracles.

Derandomized with a bounded example count, so every run draws the same
examples and the suite stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thpoly import (DenseMatrix, PrimeField, charpoly_generic,
                    dense_charpoly, random_structured)
from thpoly.errors import NotGenericError

PRIMES = (3, 101, (1 << 31) - 1, 2013265921, (1 << 61) - 1)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 40),
       alpha_t=st.integers(0, 3), alpha_h=st.integers(0, 3),
       k=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_block_matvecs_match_dense(p, n, alpha_t, alpha_h, k, seed):
    f = PrimeField(p)
    A = random_structured(f, n, alpha_t, alpha_h, seed)
    dense = A.reconstruct()
    V = f.rand_mat(f.rng(seed), (n, k))
    assert np.array_equal(A.matvec_block(V), f.matmul(dense, V))
    assert np.array_equal(A.matvec_t_block(V), f.matmul(dense.T.copy(), V))


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
