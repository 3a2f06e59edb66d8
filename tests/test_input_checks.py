"""Each check of a library entry point on its arguments, triggered once."""

import pytest

from thpoly import (BsgsPlan, DenseMatrix, PrimeField, THMatrix, ToeplitzCore,
                    core_multiply, core_power, dense_charpoly, dense_minpoly,
                    from_toeplitz, krylov_sequence_naive, minpoly,
                    random_structured)
from thpoly.dense import DENSE_GUARD
from thpoly.errors import (DimensionMismatchError, FieldMismatchError,
                           GuardExceededError, ShapeMismatchError)
from thpoly.wiedemann import verification_vectors

F = PrimeField(101)
F2 = PrimeField(103)


def core(n, field=F):
    return ToeplitzCore(field, n, field.zeros((n, 1)), field.zeros((n, 1)))


def matrix(field=F):
    return random_structured(field, 4, 1, 1, 0)


def big_dense():
    return DenseMatrix(F, F.zeros((DENSE_GUARD + 1,) * 2))


CHECKS = {
    "core-size-0": (lambda: core(0), DimensionMismatchError, "at least 1"),
    "core-1d": (lambda: ToeplitzCore(F, 3, F.zeros(3), F.zeros(3)),
                DimensionMismatchError, "n x alpha"),
    "core-rows": (lambda: ToeplitzCore(F, 3, F.zeros((2, 1)), F.zeros((2, 1))),
                  DimensionMismatchError, "length n"),
    "core-widths": (lambda: ToeplitzCore(F, 3, F.zeros((3, 1)),
                                         F.zeros((3, 2))),
                    DimensionMismatchError, "equal width"),
    "core-multiply-sizes": (lambda: core_multiply(core(3), core(4)),
                            DimensionMismatchError, "dimensions differ"),
    "core-multiply-fields": (lambda: core_multiply(core(3), core(3, F2)),
                             FieldMismatchError, "different fields"),
    "core-power-0": (lambda: core_power(core(3), 0), ValueError, "positive"),
    "th-sizes": (lambda: THMatrix(F, core(3), core(4)),
                 DimensionMismatchError, "dimensions differ"),
    "th-fields": (lambda: THMatrix(F, core(3), core(3, F2)),
                  FieldMismatchError, "different field"),
    "th-add-fields": (lambda: matrix().add(matrix(F2)),
                      FieldMismatchError, "different fields"),
    "th-power-0": (lambda: matrix().power(0), ValueError, "positive"),
    "toeplitz-lengths": (lambda: from_toeplitz(F, [1, 2], [1, 2, 3]),
                         DimensionMismatchError, "lengths differ"),
    "toeplitz-empty": (lambda: from_toeplitz(F, [], []),
                       DimensionMismatchError, "at least 1"),
    "random-size-0": (lambda: random_structured(F, 0, 1, 1, 0),
                      DimensionMismatchError, "at least 1"),
    "random-width": (lambda: random_structured(F, 3, -1, 0, 0),
                     ValueError, "nonnegative"),
    "plan-length": (lambda: BsgsPlan(beta=1, s=1, L=1), ValueError,
                    "at least 2"),
    "blocks-1d": (lambda: krylov_sequence_naive(
        matrix(), F.zeros(4), F.zeros(4), 4), ShapeMismatchError, "2-D"),
    "blocks-widths": (lambda: krylov_sequence_naive(
        matrix(), F.zeros((4, 1)), F.zeros((4, 2)), 4),
        ShapeMismatchError, "equal width"),
    "trials-0": (lambda: verification_vectors(F, 4, 0, 1), ValueError,
                 "one trial"),
    "minpoly-mode": (lambda: minpoly(matrix(), 1, mode="fast"), ValueError,
                     "unknown mode"),
    "dense-square": (lambda: DenseMatrix(F, [[1, 2, 3], [4, 5, 6]]),
                     DimensionMismatchError, "square"),
    "dense-charpoly-guard": (lambda: dense_charpoly(big_dense()),
                             GuardExceededError, "guarded"),
    "dense-minpoly-guard": (lambda: dense_minpoly(big_dense()),
                            GuardExceededError, "guarded"),
}


@pytest.mark.parametrize("call, exc, match", CHECKS.values(), ids=CHECKS)
def test_input_check(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
