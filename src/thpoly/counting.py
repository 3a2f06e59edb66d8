"""Field-multiplication accounting.

Counts follow fixed per-operation formulas so that identical inputs always
give identical totals, independent of caching or vectorization details:

* scalar product: 1
* elementwise / schoolbook convolution products: the schoolbook count
* NTT-based product with transform size N: 3 * (N/2) * log2(N) twiddle
  products plus N pointwise products plus N inverse-scaling products
* ``a**e mod p``: one product per squaring or multiply step of binary
  exponentiation; an inversion is charged as a power by p-2, whatever
  computes it
* dense (a x k)(k x b) product: a*k*b
* row-reduction style updates: one product per touched entry

Additions and precomputed tables (twiddles, bit-reversal permutations) are
never charged.
"""


class MultCounter:
    """Explicit accumulator for field multiplications.

    Threaded through call chains by the operations that report costs; a
    ``None`` counter disables accounting.
    """

    __slots__ = ("mults",)

    def __init__(self) -> None:
        self.mults = 0

    def add(self, k: int) -> None:
        self.mults += int(k)

    def __repr__(self) -> str:
        return f"MultCounter(mults={self.mults})"


def pow_cost(exponent: int) -> int:
    """Products used by binary exponentiation with the given exponent."""
    e = int(exponent)
    if e <= 1:
        return 0
    return e.bit_length() - 1 + bin(e).count("1") - 1
