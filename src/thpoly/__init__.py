"""Exact annihilating polynomials of Toeplitz/Hankel-like matrices over
prime fields, via displacement generators and randomized (block) Wiedemann
algorithms with baby-step/giant-step acceleration."""

from .counting import MultCounter
from .dense import (DenseMatrix, dense_add, dense_charpoly, dense_matvec,
                    dense_minpoly, dense_mul, dense_rank, dense_to_structured,
                    dense_transpose, displacement_rank, exhaustive_lfsr,
                    stein_displacement)
from .field import PrimeField, derive_seed, is_prime
from .formats import (dump_dmx, dump_smx, load_dmx, load_smx, parse_dmx,
                      parse_smx, poly_from_line, poly_to_line, save_dmx,
                      save_smx)
from .poly import Poly, berlekamp_massey, interpolate, poly_gcd, poly_lcm
from .structured import (THMatrix, ToeplitzCore, compress_pair, core_multiply,
                         core_power, flip_conjugate, from_hankel, from_toeplitz,
                         random_structured)
from .wiedemann import (AnnihilatorReport, BlockSequence, BsgsPlan, PolyMatrix,
                        annihilates_sequence, bsgs_sequence, charpoly_generic,
                        krylov_sequence_naive, minimal_matrix_generator,
                        minpoly, polymat_det, structured_projectors,
                        verify_annihilates)

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorReport", "BlockSequence", "BsgsPlan", "DenseMatrix",
    "MultCounter", "Poly", "PolyMatrix", "PrimeField", "THMatrix",
    "ToeplitzCore", "annihilates_sequence", "berlekamp_massey",
    "bsgs_sequence", "charpoly_generic", "compress_pair", "core_multiply",
    "core_power", "dense_add", "dense_charpoly", "dense_matvec",
    "dense_minpoly", "dense_mul", "dense_rank", "dense_to_structured",
    "dense_transpose",
    "derive_seed", "displacement_rank", "dump_dmx", "dump_smx",
    "exhaustive_lfsr", "flip_conjugate", "from_hankel", "from_toeplitz",
    "interpolate", "is_prime", "krylov_sequence_naive", "load_dmx",
    "load_smx", "minimal_matrix_generator", "minpoly", "parse_dmx",
    "parse_smx", "poly_from_line", "poly_gcd", "poly_lcm", "poly_to_line",
    "polymat_det", "random_structured", "save_dmx", "save_smx",
    "stein_displacement", "structured_projectors", "verify_annihilates",
]
