"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything runs in exact arithmetic, so unless a tolerance is stated the
comparison is equality.  Seeds are fixed; criterion 10 re-runs
representative computations and demands byte-identical results.
"""

import math
import time

import numpy as np
import pytest

from thpoly import (BsgsPlan, DenseMatrix, PrimeField, berlekamp_massey,
                    bsgs_sequence, charpoly_generic, compress_pair,
                    core_multiply, dense_charpoly, dense_minpoly, dump_smx,
                    exhaustive_lfsr, from_toeplitz, krylov_sequence_naive,
                    minpoly, random_structured, verify_annihilates)
from thpoly.cli import main
from thpoly.errors import NotGenericError
from thpoly.linalg import rank

P_NTT = 2013265921
FIELDS = (PrimeField(101), PrimeField(P_NTT))
F_NTT = PrimeField(P_NTT)


def criterion(num, label, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE C{num:02d} {status}: {label}{detail}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def down_displacement(field, M):
    out = field.zeros(M.shape)
    out[1:, 1:] = M[:-1, :-1]
    return (M - out) % field.p


def test_c01_displacement_roundtrip():
    start = time.perf_counter()
    failures = []
    for i in range(100):
        field = FIELDS[i % 2]
        n = 4 + i % 13
        A = random_structured(field, n, i % 4, (i // 4) % 4, 1000 + i)
        for core in (A.P, A.Q):
            disp = down_displacement(field, core.dense())
            if not np.array_equal(disp, field.matmul(core.G, core.H.T)):
                failures.append(i)
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s")
    criterion(1, "displacement round-trip on 100 instances", failures,
              f" ({elapsed:.2f}s)")


def test_c02_algebra_homomorphism():
    start = time.perf_counter()
    failures = []
    for i in range(100):
        field = FIELDS[i % 2]
        n = 4 + i % 9
        A = random_structured(field, n, 2, 1, 2000 + i)
        B = random_structured(field, n, 1, 2, 3000 + i)
        da, db = A.reconstruct(), B.reconstruct()
        k = 1 + i % 5
        power = da
        for _ in range(k - 1):
            power = field.matmul(power, da)
        v = field.rand_vec(field.rng(4000 + i), n)
        checks = (
            np.array_equal((A + B).reconstruct(), (da + db) % field.p),
            np.array_equal(A.multiply(B).reconstruct(), field.matmul(da, db)),
            np.array_equal(A.power(k).reconstruct(), power),
            np.array_equal(A.transpose().reconstruct(), da.T),
            np.array_equal(A.matvec(v), field.matvec_dense(da, v)),
        )
        if not all(checks):
            failures.append((i, checks))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s")
    criterion(2, "reconstruct commutes with add/multiply/power/transpose/"
                 "matvec on 100 pairs", failures, f" ({elapsed:.2f}s)")


def test_c03_width_bounds():
    failures = []
    for i in range(100):
        field = FIELDS[i % 2]
        n = 5 + i % 8
        rng = field.rng(5000 + i)
        r = 1 + i % 4
        G = field.matmul(field.rand_vec(rng, (n, r)), field.rand_vec(rng, (r, 5)))
        H = field.rand_vec(rng, (n, 5))
        G2, H2 = compress_pair(field, G, H)
        prod = field.matmul(G, H.T)
        if G2.shape[1] != rank(field, prod):
            failures.append(("compress", i))
        if not np.array_equal(field.matmul(G2, H2.T), prod):
            failures.append(("compress-product", i))
    for i in range(50):
        field = FIELDS[i % 2]
        A = random_structured(field, 8, 1 + i % 3, 0, 6000 + i).P
        B = random_structured(field, 8, 1 + (i // 3) % 3, 0, 7000 + i).P
        got = core_multiply(A, B)
        if got.width > A.width + B.width + 1:
            failures.append(("product-width", i))
    for i in range(50):
        field = FIELDS[i % 2]
        rng = field.rng(8000 + i)
        col = field.rand_vec(rng, 9)
        row = field.rand_vec(rng, 9)
        row[0] = col[0]
        if from_toeplitz(field, col, row).P.width > 2:
            failures.append(("toeplitz-width", i))
    criterion(3, "compression reaches dense rank; product and ingestion "
                 "width bounds hold", failures)


def test_c04_bsgs_equivalence():
    failures = []
    strides = (1, 2, 3, 5)
    for i in range(100):
        field = FIELDS[i % 2]
        n = 4 + i % 13
        beta = 1 + i % min(4, n)
        A = random_structured(field, n, i % 3, (1 + i) % 3, 9000 + i)
        rng = field.rng(9500 + i)
        U = field.rand_vec(rng, (n, beta))
        V = field.rand_vec(rng, (n, beta))
        L = 2 * math.ceil(n / beta) + 2
        s = min(strides[i % 4], L)      # plan invariant requires s <= L
        plan = BsgsPlan(beta=beta, s=s, L=L)
        naive = krylov_sequence_naive(A, U, V, L)
        fast = bsgs_sequence(A, U, V, plan)
        if not np.array_equal(naive.terms, fast.terms):
            failures.append(i)
    criterion(4, "bsgs_sequence bit-identical to the naive schedule on "
                 "100 cases", failures)


def test_c05_minpoly_vs_oracle():
    start = time.perf_counter()
    mismatches = []
    for seed in range(200):
        A = random_structured(F_NTT, 12, 2, 1, 10000 + seed)
        oracle = dense_minpoly(DenseMatrix(F_NTT, A.reconstruct()))
        report = minpoly(A, seed, mode="bsgs")
        if report.polynomial != oracle:
            mismatches.append(seed)
    elapsed = time.perf_counter() - start
    failures = []
    if len(mismatches) > 2:
        failures.append(f"{len(mismatches)} mismatches: {mismatches}")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    criterion(5, "minpoly (bsgs) matches the dense oracle on >= 198/200",
              failures, f" ({200 - len(mismatches)}/200, {elapsed:.2f}s)")


@pytest.fixture(scope="module")
def charpoly_runs():
    runs = []
    start = time.perf_counter()
    for i in range(100):
        beta = (1, 2, 4)[i % 3]
        seed = 20000 + i
        A = random_structured(F_NTT, 16, 2, 2, seed)
        oracle = dense_charpoly(DenseMatrix(F_NTT, A.reconstruct()))
        try:
            report = charpoly_generic(A, beta, seed)
        except NotGenericError:
            runs.append((A, seed, oracle, None))
        else:
            runs.append((A, seed, oracle, report))
    return runs, time.perf_counter() - start


def test_c06_charpoly_vs_oracle(charpoly_runs):
    runs, elapsed = charpoly_runs
    wrong = [seed for _, seed, oracle, rep in runs
             if rep is not None and rep.polynomial != oracle]
    matches = sum(rep is not None and rep.polynomial == oracle
                  for _, _, oracle, rep in runs)
    failures = []
    if wrong:
        failures.append(f"wrong answers: {wrong}")
    if matches < 97:
        failures.append(f"only {matches}/100 matched")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s")
    criterion(6, "charpoly matches the dense oracle (>= 97/100, zero wrong)",
              failures, f" ({matches}/100 matched, {elapsed:.2f}s)")


def test_c07_certificates(charpoly_runs):
    runs, _ = charpoly_runs
    failures = []
    for A, seed, _, rep in runs:
        if rep is None:
            continue
        c = rep.polynomial
        if c.degree != 16 or c.leading() != 1:
            failures.append((seed, "shape"))
            continue
        if int(c.coeffs[15]) != (-A.trace()) % F_NTT.p:
            failures.append((seed, "trace"))
        if not verify_annihilates(A, c, 3, seed):
            failures.append((seed, "annihilation"))
        mp = minpoly(A, seed).polynomial
        _, r = c.divrem(mp)
        if not r.is_zero():
            failures.append((seed, "divisibility"))
    criterion(7, "charpoly certificates and minpoly | charpoly divisibility",
              failures)


def test_c08_berlekamp_massey_minimality():
    f5 = PrimeField(5)
    rng = np.random.default_rng(123)
    failures = []
    for i in range(500):
        length = int(rng.integers(1, 9))
        seq = [int(x) for x in rng.integers(0, 5, size=length)]
        bm = berlekamp_massey(f5, seq)
        brute = exhaustive_lfsr(f5, seq, 8)   # 5**8 <= 10**6 keeps it total
        if brute is None or bm.degree != brute.degree:
            failures.append((i, seq))
            continue
        d = int(bm.degree)
        for off in range(length - d):
            if sum(bm.coeff(t) * seq[off + t] for t in range(d + 1)) % 5:
                failures.append((i, seq, off))
                break
    criterion(8, "berlekamp_massey degree equals exhaustive search on 500 "
                 "sequences", failures)


def _bench_csv(tmp_path, name, sizes, algorithms):
    out = tmp_path / name
    code = main(["bench", "--sizes", sizes, "--algorithms", algorithms,
                 "--seeds", "1", "--alpha-t", "2", "--alpha-h", "0",
                 "--out", str(out)])
    assert code == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    return {(int(r[0]), r[4]): int(r[5]) for r in rows}


def test_c09_complexity_smoke(tmp_path):
    """The structured minpoly count grows like a structured algorithm.

    The paper gives two exponents.  Minpoly of Toeplitz/Hankel-like
    matrices costs O~(n^(omega - c(omega)) alpha^c(omega)), below n^1.86
    with the best known omega; the n^(2 - 1/omega) exponent (below 1.58)
    is for the charpoly of generic T+H-like matrices and does not apply
    here.  Both need fast (rectangular) matrix multiplication, and the
    counter charges a dense (a x k)(k x b) product as a*k*b, i.e.
    omega = 3.  Under that charge every BSGS schedule for a length 2n+2
    sequence costs Theta(n^2 log n): baby steps s*alpha*M(n), the power
    A^s about 2s alpha^2 M(n) for its two Krylov blocks plus (s alpha)^3
    for one compression of its full-rank pair (n (s alpha)^2 were it to
    shrink), giant rows (L/s)*s*alpha*M(n), and the 2-trial
    verification chain 2n matvecs, with M(n) = O(n log n).  So
    one doubling from n1 to n2 may grow the count by at most
    (n2/n1)^2 * log2(n2)/log2(n1), which is 4 * 9/8 = 4.5 for 256 -> 512.
    That still rejects lost structure in A^s (n^2.5 is 5.66x, cubic 8x)
    and the dense cubic baseline, which must grow by at least 7.0x.

    A per-doubling ratio also carries the stride s = ceil(sqrt(2n)): from
    256 to 512 s goes 23 -> 32 and the count reads 4.27x, from 128 to 256
    (s = 16 -> 23) it reads 4.23x (5.06x while A^s was built by
    square-and-multiply).  A change to the BsgsPlan stride rule must
    therefore be re-checked here at 256 -> 512; if it trips, report the
    cause rather than moving the bound or the sizes.
    """
    n1, n2 = 256, 512
    counts = _bench_csv(tmp_path, "bsgs.csv", f"{n1},{n2}", "minpoly-bsgs")
    counts.update(_bench_csv(tmp_path, "dense.csv", "64,128", "dense-charpoly"))
    bsgs1, bsgs2 = counts[(n1, "minpoly-bsgs")], counts[(n2, "minpoly-bsgs")]
    dense1, dense2 = counts[(64, "dense-charpoly")], counts[(128, "dense-charpoly")]
    bsgs_ratio = bsgs2 / bsgs1
    dense_ratio = dense2 / dense1
    bsgs_bound = (n2 / n1) ** 2 * math.log2(n2) / math.log2(n1)
    failures = []
    if not dense_ratio >= 7.0:
        failures.append(f"dense-charpoly ratio {dense_ratio:.2f} < 7.0")
    if not bsgs_ratio < bsgs_bound:
        failures.append(f"minpoly-bsgs ratio {bsgs_ratio:.2f} >= "
                        f"{bsgs_bound:.2f}")
    criterion(9, f"counter growth: minpoly-bsgs doubling < {bsgs_bound:.2f}x "
                 f"(n^2 log n), dense-charpoly doubling >= 7.0x", failures,
              f" (bsgs {bsgs1} -> {bsgs2} = {bsgs_ratio:.2f}x, "
              f"dense {dense1} -> {dense2} = {dense_ratio:.2f}x)")


def test_c10_determinism(tmp_path):
    failures = []
    A1 = random_structured(F_NTT, 12, 2, 1, 321)
    A2 = random_structured(F_NTT, 12, 2, 1, 321)
    if minpoly(A1, 9) != minpoly(A2, 9):
        failures.append("minpoly reports differ")
    if charpoly_generic(A1, 2, 9) != charpoly_generic(A2, 2, 9):
        failures.append("charpoly reports differ")
    if dump_smx(A1) != dump_smx(A2):
        failures.append("SMX bytes differ")
    grid = ["bench", "--sizes", "16,24", "--algorithms",
            "minpoly-bsgs,minpoly-naive,dense-minpoly", "--seeds", "1,2",
            "--alpha-t", "2", "--alpha-h", "1"]
    csvs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert main(grid + ["--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        csvs.append([",".join(r.split(",")[:6] + r.split(",")[7:])
                     for r in rows])   # drop the wall-clock column
    if csvs[0] != csvs[1]:
        failures.append("bench counters differ between runs")
    criterion(10, "identical seeds reproduce outputs, reports and counters "
                  "byte-for-byte", failures)
