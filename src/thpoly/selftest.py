"""Reduced-size invariant suite behind the `selftest` CLI command.

Every check is deterministic (fixed seeds, no timing in the output), so
two runs in the same environment print identical summaries.  Exit code 0
only when every check passes.  Checks fail through `_expect`, which raises
whatever the interpreter's optimize flag (`python -O` strips `assert`).
"""

from __future__ import annotations

import numpy as np

from . import wiedemann
from .dense import (DenseMatrix, dense_charpoly, dense_minpoly,
                    dense_to_structured, displacement_rank, exhaustive_lfsr)
from .field import PrimeField
from .formats import (dump_dmx, dump_smx, parse_dmx, parse_smx, poly_from_line,
                      poly_to_line)
from .linalg import rank
from .poly import Poly, berlekamp_massey, poly_gcd
from .structured import (RECONSTRUCT_GUARD, THMatrix, ToeplitzCore,
                         from_hankel, from_toeplitz, random_structured)
from .wiedemann import (BsgsPlan, KrylovPrefix, bsgs_sequence,
                        charpoly_generic, krylov_sequence_naive,
                        minimal_matrix_generator, minpoly,
                        structured_projectors, verification_vectors,
                        verify_annihilates)

_P_SMALL = 101
_P_NTT = 2013265921
_P_BIG = (1 << 61) - 1      # above 2**31: split products, no NTT
_P_TOP = (1 << 62) - 57     # the largest supported prime


def _expect(condition) -> None:
    if not condition:
        raise AssertionError


def _fields():
    return PrimeField(_P_SMALL), PrimeField(_P_NTT)


def check_field_arithmetic():
    for field in _fields():
        rng = field.rng(11)
        for _ in range(200):
            a, b, c = (int(x) for x in field.rand_vec(rng, 3))
            _expect(field.mul(field.mul(a, b), c)
                    == field.mul(a, field.mul(b, c)))
            _expect(field.mul(a, field.add(b, c)) == field.add(field.mul(a, b),
                                                               field.mul(a, c)))
            if a:
                _expect(field.mul(a, field.inv(a)) == 1)
    f7 = PrimeField(7)
    _expect(f7.inv(3) == 5)
    _expect(f7.inverses(f7.asvec([1, 2, 4])).tolist() == [1, 4, 2])
    # vectorized products above 2**31 against Python ints, on edge operands
    for p in (_P_BIG, _P_TOP):
        field = PrimeField(p)
        edges = [0, 1, p - 1, p - 2, (p - 1) // 2, (1 << 31) - 1, 1 << 31,
                 (1 << 31) + 1, p - (1 << 31)]
        x = field.asvec(edges)
        for f in edges:
            _expect(field.submul(x, f, x[::-1]).tolist()
                    == [(a - f * b) % p for a, b in zip(edges, edges[::-1])])
        _expect(field.vmul(x[:, None], x).tolist()
                == [[a * b % p for b in edges] for a in edges])
        _expect(field.dot(x, x) == sum(e * e for e in edges) % p)
    return "field arithmetic"


def check_poly_paths():
    field = PrimeField(_P_NTT)      # np.convolve up to 2 terms, FFT beyond
    rng = np.random.default_rng(12)
    lengths = [(1, 513), (2, 513)]
    lengths += [tuple(int(x) for x in rng.integers(1, 514, size=2))
                for _ in range(18)]
    for la, lb in lengths:
        a = field.rand_vec(rng, la).tolist()
        b = field.rand_vec(rng, lb).tolist()
        want = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                want[i + j] = (want[i + j] + x * y) % field.p
        _expect(field.conv(field.asvec(a), field.asvec(b)).tolist() == want)
    return "poly_mul == Python-int schoolbook product"


def check_poly_division():
    field = PrimeField(_P_SMALL)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = Poly(field, field.rand_vec(rng, 10))
        b = Poly(field, field.rand_vec(rng, 5))
        if b.is_zero():
            continue
        q, r = a.divrem(b)
        _expect(q.mul(b).add(r) == a)
        _expect(r.degree < b.degree)
        g = poly_gcd(a.mul(b), b)
        (qq, rr) = a.mul(b).divrem(g)
        _expect(rr.is_zero())
    return "divrem identity and gcd divisibility"


def check_berlekamp_massey():
    f5 = PrimeField(5)
    rng = np.random.default_rng(14)
    for _ in range(50):
        length = int(rng.integers(1, 7))
        seq = [int(x) for x in rng.integers(0, 5, size=length)]
        bm = berlekamp_massey(f5, seq)
        brute = exhaustive_lfsr(f5, seq, 6)
        _expect(brute is not None and bm.degree == brute.degree)
        d = int(bm.degree)
        for i in range(length - d):
            acc = sum(bm.coeff(t) * seq[i + t] for t in range(d + 1)) % 5
            _expect(acc == 0)
    return "berlekamp_massey minimality vs exhaustive search"


def check_displacement_roundtrip():
    for field in _fields():
        for seed in range(10):
            A = random_structured(field, 4 + seed, seed % 3, (seed + 1) % 3, seed)
            for core in (A.P, A.Q):
                dense = core.dense()
                shifted = field.zeros(dense.shape)
                shifted[1:, 1:] = dense[:-1, :-1]
                disp = (dense - shifted) % field.p
                _expect(np.array_equal(disp, field.matmul(core.G, core.H.T)))
    return "displacement round-trip"


def check_ingestion():
    field = PrimeField(_P_SMALL)
    rng = np.random.default_rng(15)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        col = field.rand_vec(rng, n)
        row = field.rand_vec(rng, n)
        row[0] = col[0]
        T = from_toeplitz(field, col, row)
        dense = T.reconstruct()
        for i in range(n):
            for j in range(n):
                want = col[i - j] if i >= j else row[j - i]
                _expect(dense[i, j] == want)
        v = field.rand_vec(rng, 2 * n - 1)
        Hm = from_hankel(field, v)
        dh = Hm.reconstruct()
        for i in range(n):
            for j in range(n):
                _expect(dh[i, j] == v[i + j])
    return "Toeplitz/Hankel ingestion matches dense entrywise"


def check_compress_widths():
    field = PrimeField(_P_SMALL)
    rng = np.random.default_rng(16)
    from .structured import compress_pair
    for _ in range(10):
        n = int(rng.integers(4, 10))
        G0 = field.rand_vec(rng, (n, 3))
        Mix = field.rand_vec(rng, (3, 6))
        G = field.matmul(G0, Mix)
        H = field.rand_vec(rng, (n, 6))
        G2, H2 = compress_pair(field, G, H)
        prod = field.matmul(G, H.T)
        _expect(np.array_equal(field.matmul(G2, H2.T), prod))
        _expect(G2.shape[1] == rank(field, prod))
        # a tall pair of full rank (I_3 on top) is minimal already and
        # comes back as it is
        G = field.rand_vec(rng, (n, 3))
        H = field.rand_vec(rng, (n, 3))
        G[:3] = H[:3] = np.eye(3, dtype=np.int64)
        G2, H2 = compress_pair(field, G, H)
        _expect(np.array_equal(G2, G) and np.array_equal(H2, H))
    return "compression reaches the dense displacement rank"


def check_homomorphism():
    for p in (_P_SMALL, _P_NTT, _P_BIG):
        field = PrimeField(p)
        for seed in range(8):
            n = 5 + seed
            A = random_structured(field, n, 2, 1, seed)
            B = random_structured(field, n, 1, 2, seed + 100)
            da, db = A.reconstruct(), B.reconstruct()
            _expect(np.array_equal((A + B).reconstruct(), (da + db) % field.p))
            _expect(np.array_equal(A.multiply(B).reconstruct(),
                                   field.matmul(da, db)))
            _expect(np.array_equal(A.power(3).reconstruct(),
                                   field.matmul(field.matmul(da, da), da)))
            _expect(np.array_equal(A.transpose().reconstruct(), da.T))
            rng = field.rng(seed)
            v = field.rand_vec(rng, n)
            _expect(np.array_equal(A.matvec(v), field.matvec_dense(da, v)))
            _expect(np.array_equal(A.matvec_t(v), field.matvec_dense(da.T, v)))
            V, U = field.rand_vec(rng, (n, 2)), field.rand_vec(rng, (n, 2))
            AV, AtU = A.matvec_pair(V, U)
            _expect(np.array_equal(AV, field.matmul(da, V)))
            _expect(np.array_equal(AtU, field.matmul(da.T, U)))
            _expect(A.trace() == sum(np.diag(da).tolist()) % field.p)
    return "reconstruct commutes with the structured algebra at three primes"


def check_fft_kernel():
    # FFT rounding depends on the installed numpy: on all-(p-1) inputs (the
    # largest limbs), run the kernel at the largest n that still uses
    # 16-bit limbs, where one generator fills the error budget, at n = 128
    # with generators filling two whole chunks, whose sums one kernel call
    # takes in a single batch, and at n = 256 with nine chunks against one
    # column, whose limb pairs the kernel forms over several slabs (a few
    # chunks, or above 2**31 a few terms, at a time), as in a BSGS giant
    # step; each also in a pair pass of unequal widths, A on k + 1 columns
    # beside A^T on k
    for p in ((1 << 31) - 1, _P_NTT, _P_BIG, _P_TOP):
        field = PrimeField(p)
        widest = max(m for m in range(1, RECONSTRUCT_GUARD + 1)
                     if field.fft_limbs(m, m)[0] == 16)
        for n, width, k in ((widest, 2, 2),
                            (128, 2 * field.fft_limbs(128, 128)[2], 2),
                            (256, 9 * field.fft_limbs(256, 256)[2], 1)):
            G = np.full((n, width), p - 1, dtype=np.int64)
            core = ToeplitzCore(field, n, G, G)
            V = np.full((n, k), p - 1, dtype=np.int64)
            W = np.full((n, k + 1), p - 1, dtype=np.int64)
            C = core.dense()
            T = THMatrix(field, core, ToeplitzCore.zero(field, n))
            _expect(np.array_equal(T.matvec_block(V), field.matmul(C, V)))
            # A = C + J C: half the columns of each pass J-folded
            A, M = THMatrix(field, core, core), (C + C[::-1]) % p
            Mt = M.T.copy()
            _expect(np.array_equal(A.matvec_block(V), field.matmul(M, V)))
            _expect(np.array_equal(A.matvec_t_block(V), field.matmul(Mt, V)))
            AW, AtV = A.matvec_pair(W, V)
            _expect(np.array_equal(AW, field.matmul(M, W)))
            _expect(np.array_equal(AtV, field.matmul(Mt, V)))
    return "float-FFT matvec exact at the widest 16-bit-limb size"


def check_bsgs_equivalence():
    # each giant-row route in turn: at these sizes the rule picks the
    # dense B every time
    field = PrimeField(_P_NTT)
    rule = wiedemann._dense_giants
    try:
        for seed in range(10):
            n = 6 + seed
            beta = 1 + seed % 3
            A = random_structured(field, n, 2, 1, seed)
            U, V = structured_projectors(field, n, beta, seed)
            plan = BsgsPlan(beta=beta, s=1 + seed % 3, L=2 * (n // beta) + 2)
            naive = krylov_sequence_naive(A, U, V, plan.L)
            for dense in (False, True):
                wiedemann._dense_giants = lambda *args, _dense=dense: _dense
                fast = bsgs_sequence(A, U, V, plan)
                _expect(np.array_equal(naive.terms, fast.terms))
    finally:
        wiedemann._dense_giants = rule
    return "bsgs sequence identical to the naive schedule"


def check_generator_vs_bm():
    field = PrimeField(_P_SMALL)
    rng = np.random.default_rng(17)
    from .wiedemann import BlockSequence
    for _ in range(10):
        d = int(rng.integers(1, 5))
        taps = [int(x) for x in rng.integers(0, _P_SMALL, size=d)]
        seq = [int(x) for x in rng.integers(0, _P_SMALL, size=d)]
        for _ in range(2 * d + 4):
            seq.append(sum(t * s for t, s in zip(taps, seq[-d:])) % _P_SMALL)
        bm = berlekamp_massey(field, seq)
        terms = np.asarray(seq, dtype=np.int64).reshape(-1, 1, 1)
        F = minimal_matrix_generator(BlockSequence(field, 1, terms), d)
        _expect(Poly(field, F.coeffs[0, 0]) == bm)
    zero = BlockSequence(field, 2, np.zeros((9, 2, 2), dtype=np.int64))
    F = minimal_matrix_generator(zero, 2)
    _expect(np.array_equal(F.coeffs, np.eye(2, dtype=np.int64)[:, :, None]))
    return "matrix generator matches scalar Berlekamp-Massey"


def check_minpoly_vs_oracle():
    field = PrimeField(_P_NTT)
    for seed in range(8):
        A = random_structured(field, 10, 2, 1, seed)
        oracle = dense_minpoly(DenseMatrix(field, A.reconstruct()))
        for mode in ("naive", "bsgs"):
            report = minpoly(A, seed, mode=mode)
            _expect(report.verified)
            _expect(report.polynomial == oracle)
    return "minpoly (both modes) matches the dense oracle"


def check_charpoly_vs_oracle():
    field = PrimeField(_P_NTT)
    for seed in range(6):
        A = random_structured(field, 10, 2, 2, seed)
        oracle = dense_charpoly(DenseMatrix(field, A.reconstruct()))
        report = charpoly_generic(A, 1 + seed % 2, seed)
        _expect(report.polynomial == oracle)
        _expect(report.polynomial.degree == 10)
        _expect(report.polynomial.leading() == 1)
    return "charpoly matches the dense oracle with certificates"


def check_verification():
    field = PrimeField(_P_NTT)
    eye = THMatrix.identity(field, 6)
    x_minus_1 = Poly(field, [field.p - 1, 1])
    _expect(verify_annihilates(eye, x_minus_1, 2, 5))
    _expect(not verify_annihilates(eye, Poly(field, [0, 1]), 2, 5))
    # one trial carried three steps on the A chain, then on the A^T chain:
    # each accepts the minimal polynomial and rejects a wrong one
    A = random_structured(field, 8, 2, 1, 6)
    mp = dense_minpoly(DenseMatrix(field, A.reconstruct()))
    wrong = Poly(field, [int(mp.coeffs[0]) + 1] + mp.to_list()[1:])
    for step, forward in ((A.matvec_block, 1), (A.matvec_t_block, 0)):
        powers = [verification_vectors(field, 8, 1, 7)]
        for _ in range(3):
            powers.append(step(powers[-1]))
        prefix = KrylovPrefix(np.stack(powers).astype(np.int64), forward)
        _expect(verify_annihilates(A, mp, 1, 7, prefix=prefix))
        _expect(not verify_annihilates(A, wrong, 1, 7, prefix=prefix))
    return "annihilation verifier accepts/rejects correctly"


def check_roundtrips():
    field = PrimeField(_P_SMALL)
    A = random_structured(field, 7, 2, 1, 3)
    _expect(dump_smx(parse_smx(dump_smx(A))) == dump_smx(A))
    M = DenseMatrix(field, A.reconstruct())
    _expect(dump_dmx(parse_dmx(dump_dmx(M))) == dump_dmx(M))
    f = Poly(field, [3, 0, 5, 1])
    _expect(poly_from_line(field, poly_to_line(f)) == f)
    _expect(poly_from_line(field, "") == Poly.zero(field))
    # only the Toeplitz part has small down-shift displacement rank; the
    # Hankel part is small-rank after J-conjugation
    T = random_structured(field, 7, 2, 0, 5)
    _expect(displacement_rank(DenseMatrix(field, T.reconstruct())) <= 2)
    Hm = random_structured(field, 7, 0, 2, 6)
    flipped = DenseMatrix(field, Hm.reconstruct()[::-1, :].copy())
    _expect(displacement_rank(flipped) <= 2)
    rt = dense_to_structured(M)
    _expect(np.array_equal(rt.reconstruct(), M.rows))
    return "SMX/DMX/polynomial round-trips"


def check_determinism():
    field = PrimeField(_P_NTT)
    A = random_structured(field, 9, 2, 1, 21)
    B = random_structured(field, 9, 2, 1, 21)
    _expect(np.array_equal(A.P.G, B.P.G) and np.array_equal(A.Q.H, B.Q.H))
    r1 = minpoly(A, 4)
    r2 = minpoly(B, 4)
    _expect(r1 == r2)
    c1 = charpoly_generic(A, 2, 4)
    c2 = charpoly_generic(B, 2, 4)
    _expect(c1 == c2)
    return "seeded runs are reproducible including counters"


CHECKS = (
    check_field_arithmetic,
    check_poly_paths,
    check_poly_division,
    check_berlekamp_massey,
    check_displacement_roundtrip,
    check_ingestion,
    check_compress_widths,
    check_homomorphism,
    check_fft_kernel,
    check_bsgs_equivalence,
    check_generator_vs_bm,
    check_minpoly_vs_oracle,
    check_charpoly_vs_oracle,
    check_verification,
    check_roundtrips,
    check_determinism,
)


def run_selftest(write=print, checks=CHECKS) -> bool:
    failures = 0
    for check in checks:
        try:
            label = check()
            write(f"ok   {label}")
        except AssertionError as exc:
            failures += 1
            write(f"FAIL {check.__name__}: {exc}")
        except Exception as exc:   # surface unexpected breakage, keep going
            failures += 1
            write(f"FAIL {check.__name__}: {type(exc).__name__}: {exc}")
    write(f"selftest: {len(checks)} checks, {failures} failures")
    return failures == 0
