"""Field-multiplication accounting.

Counts follow fixed per-operation formulas so that identical inputs always
give identical totals, independent of caching or vectorization details:

* scalar product: 1
* elementwise products: one per entry
* product of polynomials of lengths la and lb: where p < 2**31 and both
  2**20 and the padded size N divide p - 1, the NTT formula 3*(N/2)*lg N
  twiddle plus N pointwise plus N inverse-scaling products, a charge rule
  only (no product runs an NTT); elsewhere the schoolbook la*lb
* ``a**e mod p``: one product per squaring or multiply step of binary
  exponentiation; an inversion is charged as a power by p-2, whatever
  computes it
* dense (a x k)(k x b) product: a*k*b
* row-reduction style updates: one product per touched entry.  An
  ``rref`` pivot charges the entries, from its column on, of the rows it
  actually updates, so the charge depends on the input's row order when
  entries vanish: at p = 3, n = 4, alpha (0, 2), ``minpoly --mode bsgs
  --seed 7`` reads 3,086 for one order and 3,094 for another

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
