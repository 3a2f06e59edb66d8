import numpy as np
import pytest

from thpoly import (BlockSequence, BsgsPlan, DenseMatrix, MultCounter, Poly,
                    PolyMatrix, PrimeField, THMatrix, annihilates_sequence,
                    berlekamp_massey, bsgs_sequence, charpoly_generic,
                    dense_charpoly, dense_minpoly, dense_to_structured,
                    from_toeplitz, krylov_sequence_naive,
                    minimal_matrix_generator, minpoly, polymat_det,
                    random_structured, structured_projectors,
                    verify_annihilates)
from thpoly.errors import (BadBlockSizeError, FieldTooSmallError,
                           InsufficientLengthError, NotGenericError,
                           ShapeMismatchError, SingularEverywhereError)
from thpoly.bench import run_case
from thpoly.field import derive_seed
from thpoly.wiedemann import KrylovPrefix, verification_vectors

import _ref

P_NTT = 2013265921
F = PrimeField(P_NTT)


def shift_matrix(field, n):
    return from_toeplitz(field, [0, 1] + [0] * (n - 2), [0] * n)


# -- projectors ------------------------------------------------------------------


def test_projectors_deterministic():
    u1, v1 = structured_projectors(F, 4, 1, 7)
    u2, v2 = structured_projectors(F, 4, 1, 7)
    assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
    assert u1.shape == (4, 1)


def test_projectors_full_block_shape():
    U, V = structured_projectors(F, 4, 4, 3)
    assert U.shape == (4, 4) and V.shape == (4, 4)
    cols = {tuple(int(x) for x in U[:, j]) for j in range(4)}
    assert len(cols) == 4
    with pytest.raises(BadBlockSizeError):
        structured_projectors(F, 4, 5, 3)
    A = random_structured(F, 4, 2, 1, 3)
    for beta in (0, 5):
        with pytest.raises(BadBlockSizeError,
                           match=f"block size {beta} outside 1..4"):
            charpoly_generic(A, beta, 3)


def test_projector_quality():
    hits = 0
    for seed in range(50):
        A = random_structured(F, 16, 2, 0, seed)
        oracle = dense_minpoly(DenseMatrix(F, A.reconstruct()))
        got = minpoly(A, seed).polynomial
        hits += got == oracle
    assert hits >= 49


# -- sequences -------------------------------------------------------------------


def test_naive_sequence_identity_and_zero():
    eye = THMatrix.identity(F, 5)
    U, V = structured_projectors(F, 5, 2, 11)
    seq = krylov_sequence_naive(eye, U, V, 6)
    expected = F.matmul(U.T.copy(), V)
    for i in range(6):
        assert np.array_equal(seq.terms[i], expected)
    zero = THMatrix.zero(F, 5)
    zseq = krylov_sequence_naive(zero, U, V, 4)
    assert np.array_equal(zseq.terms[0], expected)
    assert not zseq.terms[1:].any()


def test_naive_sequence_vs_dense_powers():
    A = random_structured(F, 8, 2, 1, 12)
    U, V = structured_projectors(F, 8, 2, 13)
    seq = krylov_sequence_naive(A, U, V, 10)
    dense = A.reconstruct()
    power = V.copy()
    for i in range(10):
        assert np.array_equal(seq.terms[i], F.matmul(U.T.copy(), power))
        power = F.matmul(dense, power)


@pytest.mark.parametrize("p", (101, (1 << 61) - 1))
@pytest.mark.parametrize("alpha_t,alpha_h", ((2, 0), (0, 2), (2, 1)))
@pytest.mark.parametrize("beta", (1, 2, 3))
def test_two_sided_sequence_vs_dense(monkeypatch, p, alpha_t, alpha_h, beta):
    # S_{2i} = U_i^T V_i and S_{2i+1} = U_i^T V_{i+1} read the two chains,
    # which stay int64, and their projections are taken in batches; every
    # term must still be U^T A^i V in int64 residues, at the per-step
    # charge, with all steps in one batch or two steps per batch
    f = PrimeField(p)
    for n in (1, 2, 5, 7, 17):
        if beta > n:
            continue
        A = random_structured(f, n, alpha_t, alpha_h, 40 + beta)
        U, V = structured_projectors(f, n, beta, 41)
        dense = A.reconstruct()
        step = 2 * A.alpha * beta * f.conv_charge(n, n)
        for budget in (1 << 16, 2 * 3 * n * beta * 8):
            monkeypatch.setattr("thpoly.wiedemann._PROJECTION_BYTES", budget)
            for L in (1, 2, 3, 8, 9):
                counter = MultCounter()
                seq = krylov_sequence_naive(A, U, V, L, counter)
                assert counter.mults == (L - 1) * step + L * beta * n * beta
                assert seq.terms.dtype == np.int64
                power = V
                for i in range(L):
                    assert np.array_equal(seq.terms[i],
                                          f.matmul(U.T.copy(), power))
                    power = f.matmul(dense, power)


@pytest.mark.parametrize("p", (101, (1 << 61) - 1, (1 << 62) - 57))
@pytest.mark.parametrize("alpha_t,alpha_h", ((2, 0), (0, 2), (2, 1)))
@pytest.mark.parametrize("beta", (1, 2, 3))
def test_bsgs_sequence_vs_dense(p, alpha_t, alpha_h, beta):
    # every giant row is taken in one int64 product with the baby steps;
    # every term must be U^T A^i V in int64 residues, charged as the
    # s - 1 baby steps, the power and its giants - 1 passes, and the
    # beta x n x beta product of each of the L terms
    f = PrimeField(p)
    for n in (1, 2, 5, 17):
        if beta > n:
            continue
        A = random_structured(f, n, alpha_t, alpha_h, 50 + beta)
        U, V = structured_projectors(f, n, beta, 51)
        dense = A.reconstruct()
        step = 2 * beta * f.conv_charge(n, n)
        for L in (2, 3, 8, 9):
            for s in sorted({1, 2, 3, L} & set(range(1, L + 1))):
                giants = -(-L // s)
                want = (s - 1) * A.alpha * step + L * beta * beta * n
                if giants > 1:
                    power = MultCounter()
                    B = A.power(s, power)
                    want += power.mults + (giants - 1) * B.alpha * step
                counter = MultCounter()
                seq = bsgs_sequence(A, U, V, BsgsPlan(beta, s, L), counter)
                assert seq.terms.dtype == np.int64 and seq.L == L
                assert counter.mults == want
                power = V
                for i in range(L):
                    assert np.array_equal(seq.terms[i],
                                          f.matmul(U.T.copy(), power))
                    power = f.matmul(dense, power)


def test_bsgs_sequence_takes_one_product(monkeypatch):
    # with the power precomputed, the sequence's only products of blocks
    # are one `matmul_int64` of all giant rows, and no `matmul`
    A = random_structured(F, 64, 2, 0, 3)
    u, v = structured_projectors(F, 64, 1, 4)
    plan = BsgsPlan.default(64, 1)
    assert -(-plan.L // plan.s) == 11
    B = A.power(plan.s)
    monkeypatch.setattr(THMatrix, "power", lambda self, k, counter=None: B)
    calls = []
    for name in ("matmul", "matmul_int64"):
        def logged(self, *args, _name=name, _method=getattr(PrimeField, name),
                   **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(PrimeField, name, logged)
    seq = bsgs_sequence(A, u, v, plan)
    assert calls == ["matmul_int64"]
    monkeypatch.undo()
    assert np.array_equal(seq.terms, krylov_sequence_naive(A, u, v, plan.L).terms)


def test_bsgs_identity_and_stride_one():
    eye = THMatrix.identity(F, 6)
    U, V = structured_projectors(F, 6, 2, 14)
    plan = BsgsPlan(beta=2, s=3, L=8)
    seq = bsgs_sequence(eye, U, V, plan)
    expected = F.matmul(U.T.copy(), V)
    for i in range(8):
        assert np.array_equal(seq.terms[i], expected)
    A = random_structured(F, 6, 2, 1, 15)
    one = bsgs_sequence(A, U, V, BsgsPlan(beta=2, s=1, L=8))
    naive = krylov_sequence_naive(A, U, V, 8)
    assert np.array_equal(one.terms, naive.terms)


def test_bsgs_matches_naive_spec_case():
    A = random_structured(F, 12, 2, 1, 16)
    U, V = structured_projectors(F, 12, 2, 17)
    plan = BsgsPlan(beta=2, s=3, L=14)
    assert np.array_equal(bsgs_sequence(A, U, V, plan).terms,
                          krylov_sequence_naive(A, U, V, 14).terms)


def test_bsgs_shape_checks():
    A = random_structured(F, 6, 1, 1, 18)
    U, V = structured_projectors(F, 6, 2, 19)
    with pytest.raises(ShapeMismatchError):
        bsgs_sequence(A, U, V, BsgsPlan(beta=3, s=2, L=8))
    with pytest.raises(ShapeMismatchError):
        krylov_sequence_naive(A, U[:4], V[:4], 5)


def test_plan_validation():
    with pytest.raises(ValueError):
        BsgsPlan(beta=1, s=9, L=8)
    with pytest.raises(BadBlockSizeError):
        BsgsPlan(beta=0, s=1, L=4)
    plan = BsgsPlan.default(16, 2)
    assert plan.L == 18 and 1 <= plan.s <= plan.L


# -- minimal matrix generator ------------------------------------------------------


def test_generator_scalar_fibonacci():
    f101 = PrimeField(101)
    terms = np.asarray([1, 1, 2, 3, 5, 8, 13, 21]).reshape(-1, 1, 1)
    seq = BlockSequence(f101, 1, terms)
    Fgen = minimal_matrix_generator(seq, 2)
    assert Fgen.coeffs.tolist() == [[[100, 100, 1]]]
    assert annihilates_sequence(Fgen, seq)


def test_generator_zero_sequence_is_identity():
    seq = BlockSequence(F, 2, np.zeros((9, 2, 2), dtype=np.int64))
    Fgen = minimal_matrix_generator(seq, 2)
    assert np.array_equal(Fgen.coeffs, np.eye(2, dtype=np.int64)[:, :, None])


def test_generator_matches_bm_on_random_recurrences():
    f101 = PrimeField(101)
    rng = f101.rng(20)
    for _ in range(100):
        d = int(rng.integers(1, 6))
        taps = [int(x) for x in f101.rand_vec(rng, d)]
        seq = [int(x) for x in f101.rand_vec(rng, d)]
        for _ in range(2 * d + 2):
            seq.append((-sum(t * s for t, s in zip(taps, seq[-d:]))) % 101)
        terms = np.asarray(seq).reshape(-1, 1, 1)
        block = BlockSequence(f101, 1, terms)
        Fgen = minimal_matrix_generator(block, d)
        assert Poly(f101, Fgen.coeffs[0, 0]) == berlekamp_massey(f101, seq)


def test_generator_planted_charpoly():
    diag = F.zeros((4, 4))
    for i, lam in enumerate((1, 2, 3, 4)):
        diag[i, i] = lam
    A = dense_to_structured(DenseMatrix(F, diag))
    U, V = structured_projectors(F, 4, 2, 21)
    seq = krylov_sequence_naive(A, U, V, 6)
    Fgen = minimal_matrix_generator(seq, 4)
    det = polymat_det(Fgen)
    want = Poly(F, [1])
    for lam in (1, 2, 3, 4):
        want = want.mul(Poly(F, [(-lam) % F.p, 1]))
    assert det == want
    assert annihilates_sequence(Fgen, seq)


def test_generator_insufficient_length():
    seq = BlockSequence(F, 1, np.zeros((4, 1, 1), dtype=np.int64))
    with pytest.raises(InsufficientLengthError):
        minimal_matrix_generator(seq, 10)


def test_generator_annihilates_random_block_sequences():
    # at beta = 8 a pivot cancels up to 15 of the 16 basis rows, and
    # above 2^31 the row updates take split products
    for p in (P_NTT, (1 << 61) - 1):
        f = PrimeField(p)
        for beta in (1, 2, 3, 5, 8):
            for seed in range(3):
                A = random_structured(f, 10, 2, 1, seed + 30)
                U, V = structured_projectors(f, 10, beta, seed)
                L = 2 * (10 // beta) + 4
                seq = krylov_sequence_naive(A, U, V, L)
                Fgen = minimal_matrix_generator(seq, 10)
                assert Fgen.coeffs.dtype == np.int64, (p, beta, seed)
                assert annihilates_sequence(Fgen, seq), (p, beta, seed)


# -- polynomial-matrix determinant ---------------------------------------------------


def _pm(field, rows):
    degs = tuple(max((int(e.degree) for e in row if not e.is_zero()), default=0)
                 for row in rows)
    coeffs = field.zeros((len(rows), len(rows), max(degs) + 1))
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            coeffs[i, j, :len(e.coeffs)] = e.coeffs
    return PolyMatrix(field, coeffs, degs)


def test_polymat_det_scalar_entry():
    f101 = PrimeField(101)
    f = Poly(f101, [3, 2, 1])
    assert polymat_det(_pm(f101, [[f]])) == f.monic()


def test_polymat_det_diag():
    f101 = PrimeField(101)
    x = Poly(f101, [0, 1])
    xm1 = Poly(f101, [100, 1])
    got = polymat_det(_pm(f101, [[x, Poly.zero(f101)], [Poly.zero(f101), xm1]]))
    assert got.to_list() == [0, 100, 1]                    # x^2 - x
def test_polymat_det_vs_cofactor():
    f101 = PrimeField(101)
    rng = f101.rng(22)
    for _ in range(10):
        rows = [[Poly(f101, f101.rand_vec(rng, 3)) for _ in range(2)]
                for _ in range(2)]
        want = _ref.poly_det(rows, 101)
        if not want:
            continue
        assert polymat_det(_pm(f101, rows)).to_list() == _ref.monic(want, 101)


def test_polymat_det_charges_each_entry_its_own_degree():
    # D + 1 = 6 points, D the sum 2 + 2 + 1 of the rows' largest entry
    # degrees; each nonzero entry pays its own degree times 6, a zero entry
    # nothing, and no entry the padded length of its row
    f101 = PrimeField(101)
    rows = [[[3, 2, 1], [], [7]], [[5], [1, 1], [0, 0, 4]], [[2, 9], [], [1]]]
    F = _pm(f101, [[Poly(f101, e) for e in row] for row in rows])
    assert F.row_degrees == (2, 2, 1) and F.degree == 2
    counter = MultCounter()
    assert polymat_det(F, counter).to_list() == [90, 29, 41, 1]
    assert counter.mults == 369


def test_polymat_det_big_primes_vs_cofactor():
    for p in ((1 << 61) - 1, (1 << 62) - 57):
        fbig = PrimeField(p)
        rng = fbig.rng(23)
        for beta in (2, 3):
            rows = [[Poly(fbig, fbig.rand_vec(rng, 3)) for _ in range(beta)]
                    for _ in range(beta)]
            got = polymat_det(_pm(fbig, rows))
            assert got.coeffs.dtype == np.int64
            assert got.to_list() == _ref.monic(_ref.poly_det(rows, p), p)


def test_polymat_det_vanishing_at_some_points():
    # det = x(x - 1)(x - 2) vanishes at three of the points 0..3, so dead
    # matrices (one at the first column, two after it) sit in a live
    # stack; row 0 needs a swap wherever x != 0.  Charge measured on the
    # matrix-at-a-time elimination.
    f101 = PrimeField(101)
    rows = [[Poly(f101, c) for c in row] for row in
            [[[], [99, 1], [1]], [[0, 1], [1], []], [[], [], [100, 1]]]]
    counter = MultCounter()
    got = polymat_det(_pm(f101, rows), counter)
    assert got.to_list() == [0, 2, 98, 1]
    assert got.to_list() == _ref.monic(_ref.poly_det(rows, 101), 101)
    assert counter.mults == 133


def test_polymat_det_field_too_small():
    f5 = PrimeField(5)
    f = Poly(f5, [1, 1, 1, 1, 1, 1, 1])       # degree 6 needs 7 points
    with pytest.raises(FieldTooSmallError):
        polymat_det(_pm(f5, [[f]]))


def test_polymat_det_points_fill_the_field():
    # degree 4 at p = 5: the 5 points 0..4 are every residue, and each
    # divided-difference denominator is nonzero; degree 5 needs 6
    f5 = PrimeField(5)
    f = Poly(f5, [1, 2, 3, 4, 1])
    assert polymat_det(_pm(f5, [[f]])) == f
    with pytest.raises(FieldTooSmallError):
        polymat_det(_pm(f5, [[Poly(f5, [1, 2, 3, 4, 0, 1])]]))


@pytest.mark.parametrize("alpha", [(2, 0), (0, 2), (2, 1)])
@pytest.mark.parametrize("seed", [1, 3])
def test_charpoly_block_size_n_at_small_p(alpha, seed):
    # with beta = n = 64 the generator has degree 2 but row degrees summing
    # to 64: its determinant needs 65 points, not beta * 2 + 1 = 129 > p
    f101 = PrimeField(101)
    A = random_structured(f101, 64, *alpha, seed)
    report = charpoly_generic(A, 64, seed)
    assert report.polynomial == dense_charpoly(DenseMatrix(f101, A.reconstruct()))


def test_polymat_det_singular():
    f101 = PrimeField(101)
    z = Poly.zero(f101)
    with pytest.raises(SingularEverywhereError):
        polymat_det(_pm(f101, [[z, z], [z, z]]))


# -- minpoly ---------------------------------------------------------------------------


def test_minpoly_identity():
    report = minpoly(THMatrix.identity(F, 6), 1)
    assert report.polynomial.to_list() == [F.p - 1, 1]
    assert report.verified


def test_minpoly_shift_nilpotent():
    report = minpoly(shift_matrix(F, 6), 2)
    assert report.polynomial.to_list() == [0] * 6 + [1]


def test_minpoly_zero_matrix_is_x():
    report = minpoly(THMatrix.zero(F, 5), 3)
    assert report.polynomial.to_list() == [0, 1]
    assert report.verified


@pytest.mark.parametrize("mode", ["naive", "bsgs"])
def test_minpoly_vs_oracle(mode):
    for seed in range(10):
        A = random_structured(F, 12, 2, 1, seed + 40)
        oracle = dense_minpoly(DenseMatrix(F, A.reconstruct()))
        report = minpoly(A, seed, mode=mode)
        assert report.polynomial == oracle
        assert report.verified
        assert report.algorithm == f"minpoly-{mode}"


def test_minpoly_deterministic_reports():
    A = random_structured(F, 12, 2, 1, 77)
    assert minpoly(A, 5) == minpoly(A, 5)
    assert minpoly(A, 5, mode="naive") == minpoly(A, 5, mode="naive")


# -- charpoly --------------------------------------------------------------------------


def test_charpoly_identity_full_block():
    report = charpoly_generic(THMatrix.identity(F, 5), 5, 3)
    want = Poly.one(F)
    for _ in range(5):
        want = want.mul(Poly(F, [F.p - 1, 1]))
    assert report.polynomial == want


def test_charpoly_identity_small_block_not_generic():
    with pytest.raises(NotGenericError) as info:
        charpoly_generic(THMatrix.identity(F, 5), 1, 3)
    assert info.value.degree == 1
    assert info.value.partial.to_list() == [F.p - 1, 1]


def test_charpoly_shift():
    report = charpoly_generic(shift_matrix(F, 5), 1, 4)
    assert report.polynomial.to_list() == [0] * 5 + [1]


@pytest.mark.parametrize("beta", [1, 2, 4, 8])
def test_charpoly_vs_oracle(beta):
    cases = [(F, seed) for seed in range(3)] + [(PrimeField((1 << 61) - 1), 3)]
    for f, seed in cases:
        A = random_structured(f, 16, 2, 2, 10 * seed + beta)
        oracle = dense_charpoly(DenseMatrix(f, A.reconstruct()))
        report = charpoly_generic(A, beta, seed)
        assert report.polynomial == oracle


def test_charpoly_certificates():
    A = random_structured(F, 16, 2, 2, 55)
    report = charpoly_generic(A, 2, 55)
    c = report.polynomial
    assert c.degree == 16 and c.leading() == 1
    assert int(c.coeffs[15]) == (-A.trace()) % F.p
    assert verify_annihilates(A, c, 3, 99)
    mp = minpoly(A, 55).polynomial
    _, r = c.divrem(mp)
    assert r.is_zero()


def test_charpoly_field_too_small():
    f13 = PrimeField(13)
    A = random_structured(f13, 16, 2, 1, 1)
    with pytest.raises(FieldTooSmallError):
        charpoly_generic(A, 2, 1)


def test_charpoly_deterministic():
    A = random_structured(F, 12, 2, 2, 66)
    assert charpoly_generic(A, 2, 9) == charpoly_generic(A, 2, 9)


CHARPOLY_PINS = [
    (P_NTT, 64, 2, 3_196_221), (P_NTT, 128, 2, 14_175_197),
    (P_NTT, 64, 8, 3_506_696), (P_NTT, 128, 8, 15_152_360),
    (P_NTT, 64, 32, 5_934_796), ((1 << 61) - 1, 64, 8, 8_465_540)]


@pytest.mark.parametrize("p, n, beta, mults", CHARPOLY_PINS,
                         ids=[f"{n}-{mults}" for _, n, _, mults in CHARPOLY_PINS])
def test_charpoly_block_count_pin(p, n, beta, mults):
    record = run_case(PrimeField(p), n, 2, 1, beta, "charpoly-block", 1)
    assert record.field_mults == mults


@pytest.mark.parametrize("n, mults", [(128, 10_841_181), (256, 45_835_947)])
def test_minpoly_bsgs_count_pin(n, mults):
    assert run_case(F, n, 2, 0, 1, "minpoly-bsgs", 1).field_mults == mults


def test_charpoly_builds_no_power(monkeypatch):
    # the block sequence comes from successive matvecs, never from A^s
    def refuse(*args, **kwargs):
        raise AssertionError("charpoly must not build A^s")

    monkeypatch.setattr(THMatrix, "power", refuse)
    monkeypatch.setattr("thpoly.wiedemann.bsgs_sequence", refuse)
    A = random_structured(F, 64, 2, 1, 1)
    oracle = dense_charpoly(DenseMatrix(F, A.reconstruct()))
    assert charpoly_generic(A, 2, 1).polynomial == oracle


# -- verification -------------------------------------------------------------------------


def test_verify_examples():
    eye = THMatrix.identity(F, 5)
    assert verify_annihilates(eye, Poly(F, [F.p - 1, 1]), 2, 1)
    assert not verify_annihilates(eye, Poly(F, [0, 1]), 2, 1)


def test_verify_oracle_and_perturbed():
    A = random_structured(F, 10, 2, 1, 91)
    mp = dense_minpoly(DenseMatrix(F, A.reconstruct()))
    assert verify_annihilates(A, mp, 2, 2)
    for i in range(int(mp.degree)):
        bumped = mp.to_list()
        bumped[i] = (bumped[i] + i + 1) % F.p
        assert not verify_annihilates(A, Poly(F, bumped), 2, 2)


def per_trial_verify_cost(A, f):
    """Mults of checking f(A) b = 0 on one vector: d passes, d + 1 scalings."""
    matvec = 2 * A.alpha * A.field.conv_charge(A.n, A.n)
    return A.n + int(f.degree) * (matvec + A.n)


@pytest.mark.parametrize("p", [101, P_NTT, (1 << 61) - 1])
def test_verify_batched_count_and_reject(p):
    # the float-FFT kernel at a non-NTT, an NTT and an above-2^31 prime
    field = PrimeField(p)
    A = random_structured(field, 11, 2, 1, 92)
    mp = dense_minpoly(DenseMatrix(field, A.reconstruct()))
    for trials in (1, 2, 3):
        counter = MultCounter()
        assert verify_annihilates(A, mp, trials, 5, counter)
        assert counter.mults == trials * per_trial_verify_cost(A, mp)
    bumped = mp.to_list()
    bumped[1] = (bumped[1] + 1) % field.p
    assert not verify_annihilates(A, Poly(field, bumped), 3, 6)


def test_verify_zero_polynomial_accepts_free():
    counter = MultCounter()
    A = random_structured(F, 8, 2, 1, 94)
    assert verify_annihilates(A, Poly.zero(F), 2, 7, counter)
    assert counter.mults == 0


# -- verification carried on the sequence passes ------------------------------------------


def carried_prefix(A, B, m, forward, counter=None):
    """Powers 0 .. m of B, its first `forward` columns under A and the rest
    under A^T, with the charge of the passes a sequence would carry them on."""
    powers = [B]
    for _ in range(m):
        W = powers[-1]
        powers.append(np.concatenate([A.matvec_block(W[:, :forward], counter),
                                      A.matvec_t_block(W[:, forward:], counter)],
                                     axis=1))
    return KrylovPrefix(np.stack(powers).astype(np.int64), forward)


def column_charge(A):
    """Mults of one block column of one structured pass."""
    return 2 * A.alpha * A.field.conv_charge(A.n, A.n)


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
@pytest.mark.parametrize("n", [1, 9])
def test_verify_prefix_matches_horner(p, n):
    # m carried powers, then the chain continued from A^m b: the verdict
    # and the count, carried passes included, of the check from scratch,
    # with all trials on A or one of three on A^T
    field = PrimeField(p)
    A = random_structured(field, n, 2, 1, 95 + n)
    mp = dense_minpoly(DenseMatrix(field, A.reconstruct()))
    bumped = mp.to_list()
    bumped[0] = (bumped[0] + 1) % p
    d = int(mp.degree)
    B = verification_vectors(field, n, 3, 8)
    for f, want in ((mp, True), (Poly(field, bumped), False)):
        plain = MultCounter()
        assert verify_annihilates(A, f, 3, 8, plain) is want
        for m in {0, 1, d - 1, d}:
            for forward in (3, 2):
                counter = MultCounter()
                prefix = carried_prefix(A, B, m, forward, counter)
                assert verify_annihilates(A, f, 3, 8, counter, prefix) is want
                assert counter.mults == plain.mults


@pytest.mark.parametrize("forward", [0, 1, 2])
def test_verify_prefix_rejects_every_bumped_coefficient(monkeypatch, forward):
    # forward 0 and 2 put both trials on one chain, A^T or A.  Each power
    # past the carried ones is one pass over the chains that carry trials,
    # with no empty group, and a run costs what it costs without a prefix
    A = random_structured(F, 10, 2, 1, 91)
    mp = dense_minpoly(DenseMatrix(F, A.reconstruct()))
    d = int(mp.degree)
    carried = MultCounter()
    prefix = carried_prefix(A, verification_vectors(F, 10, 2, 2), d // 2,
                            forward, carried)
    passes = []
    one_pass = THMatrix._pass

    def logged(self, blocks, first, counter):
        passes.append((first, tuple(X.shape[1] for X in blocks)))
        return one_pass(self, blocks, first, counter)

    monkeypatch.setattr(THMatrix, "_pass", logged)
    groups = {0: (1, (2,)), 1: (0, (1, 1)), 2: (0, (2,))}[forward]
    candidates = [(mp, True)]
    for i in range(d + 1):
        bumped = mp.to_list()
        bumped[i] = (bumped[i] + i + 1) % F.p
        candidates.append((Poly(F, bumped), False))
    for f, want in candidates:
        plain, counter = MultCounter(), MultCounter()
        assert verify_annihilates(A, f, 2, 2, plain) is want
        passes.clear()
        counter.add(carried.mults)
        assert verify_annihilates(A, f, 2, 2, counter, prefix) is want
        assert counter.mults == plain.mults
        assert passes == [groups] * (d - d // 2)


@pytest.mark.parametrize("p", [101, P_NTT, (1 << 61) - 1, (1 << 62) - 57])
def test_verify_batch_edges(monkeypatch, p):
    # batches of 1, 2 or 3 powers give every candidate the verdict, count
    # and passes of one batch, with the trials on A^T, split or on A, and
    # m = 0, 1, d // 2 or d powers carried
    field = PrimeField(p)
    A = random_structured(field, 7, 2, 1, 101)
    mp = dense_minpoly(DenseMatrix(field, A.reconstruct()))
    d, trials = int(mp.degree), 3
    B = verification_vectors(field, 7, trials, 9)
    candidates = [mp]
    for i in range(d + 1):
        bumped = mp.to_list()
        bumped[i] = (bumped[i] + i + 1) % p
        candidates.append(Poly(field, bumped))
    prefixes = [carried_prefix(A, B, m, forward)
                for m in sorted({0, 1, d // 2, d}) for forward in (0, 1, trials)]
    passes = []
    one_pass = THMatrix._pass

    def logged(self, blocks, first, counter):
        passes.append((first, tuple(X.shape[1] for X in blocks)))
        return one_pass(self, blocks, first, counter)

    def run(f, prefix):
        counter = MultCounter()
        passes.clear()
        verdict = verify_annihilates(A, f, trials, 9, counter, prefix)
        return verdict, counter.mults, list(passes)

    monkeypatch.setattr(THMatrix, "_pass", logged)
    want = [[run(f, prefix) for f in candidates] for prefix in prefixes]
    for runs, prefix in zip(want, prefixes):
        assert [verdict for verdict, _, _ in runs] == [True] + [False] * (d + 1)
        assert all(len(logs) == d - prefix.m for _, _, logs in runs)
    for batch in (1, 2, 3):
        monkeypatch.setattr("thpoly.wiedemann._PROJECTION_BYTES",
                            batch * 8 * B.size)
        assert [[run(f, prefix) for f in candidates]
                for prefix in prefixes] == want


def test_verify_without_field_dtype_arithmetic(monkeypatch):
    # at p = 2**61 - 1 verification takes every coefficient in batched
    # int64 matrix products, with or without a prefix, never in an
    # elementwise field product
    field = PrimeField((1 << 61) - 1)
    A = random_structured(field, 9, 2, 1, 102)
    mp = dense_minpoly(DenseMatrix(field, A.reconstruct()))
    wrong = Poly(field, [(int(mp.coeffs[0]) + 1) % field.p] + mp.to_list()[1:])
    prefix = carried_prefix(A, verification_vectors(field, 9, 2, 10), 4, 1)

    def refused(*args, **kwargs):
        raise AssertionError("field-dtype arithmetic in verification")

    monkeypatch.setattr(PrimeField, "_product", refused)
    monkeypatch.setattr(PrimeField, "dot", refused)
    for carried in (None, prefix):
        assert verify_annihilates(A, mp, 2, 10, prefix=carried)
        assert not verify_annihilates(A, wrong, 2, 10, prefix=carried)


def test_verify_prefix_of_other_vectors_refused():
    A = random_structured(F, 6, 2, 1, 93)
    prefix = carried_prefix(A, verification_vectors(F, 6, 2, 3), 2, 1)
    with pytest.raises(ValueError):
        verify_annihilates(A, Poly(F, [1, 1]), 2, 4, prefix=prefix)


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
def test_two_stage_unequal_group_widths(p):
    # groups of widths (2, 1) and (1, 2) in one matvec_pair pass: the
    # separate passes' products, charged per real column, not per padded one
    field = PrimeField(p)
    A = random_structured(field, 12, 2, 1, 96)
    V = field.rand_vec(field.rng(1), (12, 2))
    U = field.rand_vec(field.rng(2), (12, 1))
    for X, Y in ((V, U), (U, V)):
        pair, apart = MultCounter(), MultCounter()
        got = A.matvec_pair(X, Y, pair)
        assert np.array_equal(got[0], A.matvec_block(X, apart))
        assert np.array_equal(got[1], A.matvec_t_block(Y, apart))
        assert pair.mults == apart.mults == 3 * column_charge(A)


@pytest.mark.parametrize("p", [101, (1 << 61) - 1])
@pytest.mark.parametrize("trials", [1, 2, 3])
def test_carried_powers_vs_dense(monkeypatch, p, trials):
    # the naive route splits the trials, ceil(t/2) on A and the rest on
    # A^T, over its (L-1)//2 pair passes; BSGS carries all on A over its
    # s-1 baby steps.  Terms are unchanged, and each carried column is
    # charged as one more block column.  The naive projections are taken
    # one step per batch.
    monkeypatch.setattr("thpoly.wiedemann._PROJECTION_BYTES", 1)
    field = PrimeField(p)
    n = 9
    A = random_structured(field, n, 2, 1, 98)
    dense = A.reconstruct()
    U, V = structured_projectors(field, n, 2, 99)
    B = verification_vectors(field, n, trials, 100)
    forward = -(-trials // 2)
    plan = BsgsPlan(beta=2, s=4, L=11)
    runs = ((krylov_sequence_naive, 11, 5, forward),
            (bsgs_sequence, plan, 3, trials))
    for sequence, arg, m, fwd in runs:
        plain, counter = MultCounter(), MultCounter()
        want = sequence(A, U, V, arg, plain)
        seq = sequence(A, U, V, arg, counter, B)
        assert want.prefix is None and np.array_equal(seq.terms, want.terms)
        assert seq.prefix.m == m and seq.prefix.forward == fwd
        assert counter.mults == plain.mults + m * trials * column_charge(A)
        ahead, back = B[:, :fwd], B[:, fwd:]
        for i in range(m + 1):
            assert np.array_equal(seq.prefix.powers[i],
                                  np.concatenate([ahead, back], axis=1))
            ahead = field.matmul(dense, ahead)
            back = field.matmul(dense.T.copy(), back)


def test_verification_rides_the_sequence_passes(monkeypatch):
    # naive minpoly: n + 1 passes, none left for verification; charpoly:
    # ceil(n/beta) + 1 sequence passes and n - ceil(n/beta) verification ones
    passes = []

    one_pass = THMatrix._pass

    def counted(*args, **kwargs):
        passes.append(1)
        return one_pass(*args, **kwargs)

    monkeypatch.setattr(THMatrix, "_pass", counted)
    A = random_structured(F, 16, 2, 1, 97)
    assert minpoly(A, 1, mode="naive").polynomial.degree == 16
    assert len(passes) == 17
    passes.clear()
    charpoly_generic(A, 2, 1)
    assert len(passes) == 17


@pytest.mark.parametrize("diagonal, degree, mode, mults", [
    ((1, 1, 2, 2, 3, 3, 3, 5), 4, "naive", 34_703),   # 26,511 + 4 * 2 * 1024
    ((1, 1, 2, 2, 3, 3, 3, 5), 4, "bsgs", 48_272),    # m = 3 < d: no excess
    ((7,) * 8, 1, "naive", 8_813),                    # 5,229 + 7 * 2 * 256
    ((7,) * 8, 1, "bsgs", 6_947),                     # 5,923 + 2 * 2 * 256
])
def test_minpoly_low_degree_count_excess(diagonal, degree, mode, mults):
    # a candidate of degree d below the m carried powers (naive m = n,
    # BSGS m = s - 1) costs exactly (m - d) * trials more column products
    # than the sequence, BM and a verification from scratch
    n = len(diagonal)
    A = dense_to_structured(DenseMatrix(F, F.asvec(np.diag(diagonal))))
    report = minpoly(A, 5, mode=mode)
    assert report.verified and report.polynomial.degree == degree
    assert report.field_mult_count == mults
    counter = MultCounter()
    u, v = structured_projectors(F, n, 1, derive_seed(5, "projectors"))
    if mode == "naive":
        m = n
        seq = krylov_sequence_naive(A, u, v, 2 * n + 2, counter)
    else:
        plan = BsgsPlan.default(n, 1)
        m = plan.s - 1
        seq = bsgs_sequence(A, u, v, plan, counter)
    f = berlekamp_massey(F, seq.terms[:, 0, 0], counter)
    assert verify_annihilates(A, f, 2, derive_seed(5, "verify"), counter)
    excess = max(0, m - degree) * 2 * column_charge(A)
    assert report.field_mult_count == counter.mults + excess


# -- scratch memory ---------------------------------------------------------------


def test_bigp_solve_borrows_the_pass_buffer(monkeypatch):
    # after a first solve has grown a thread's pass buffer, a naive minpoly
    # above 2**31 maps no buffer of its own: its batched projections and
    # its verification product split their terms to fit the pass buffer
    import threading
    from thpoly import field as field_mod, kernel
    spare, fresh, done = kernel._spare_buffer, [], []

    def logged(nbytes):
        buf = spare(nbytes)
        if buf is not getattr(kernel._scratch, "buffer", None):
            fresh.append(nbytes)
        return buf

    def solve():
        field = PrimeField((1 << 61) - 1)
        assert minpoly(random_structured(field, 128, 2, 1, 1), 1,
                       mode="naive").verified
        fresh.clear()
        assert minpoly(random_structured(field, 128, 2, 1, 2), 2,
                       mode="naive").verified
        done.append(True)

    monkeypatch.setattr(kernel, "_spare_buffer", logged)
    monkeypatch.setattr(field_mod, "_spare_buffer", logged)
    worker = threading.Thread(target=solve)     # a thread's own pass buffer
    worker.start()
    worker.join()
    assert done and fresh == []
