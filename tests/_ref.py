"""Independent brute-force oracles used only by the tests.

Deliberately separate from the library's own dense reference module so
that dual-route checks (library implementation vs test oracle) never
share code.
"""

from itertools import permutations

from thpoly import Poly


def egcd_inv(a: int, p: int) -> int:
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1, "not invertible"
    return old_s % p


def schoolbook_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return out


def kronecker_matmul(a, b, out_len: int, p: int) -> list:
    """First out_len coefficients mod p of sum_t a[i][t] * b[t][j] for
    coefficient lists low-to-high, as nested lists.  Each polynomial is
    packed into one integer with a slot per coefficient wide enough for
    the whole sum (Kronecker substitution), so a sum over t is a sum of
    big-integer products with no carry between slots."""
    coeffs = [x for rows in (a, b) for row in rows for x in row]
    longest = max((len(x) for x in coeffs), default=1)
    bits = 2 * (p - 1).bit_length() + (longest * len(b)).bit_length() + 1
    width = -(-bits // 8)

    def pack(x):
        return int.from_bytes(b"".join(int(c).to_bytes(width, "little")
                                       for c in x), "little")

    A = [[pack(x) for x in row] for row in a]
    B = [[pack(x) for x in row] for row in b]
    out = []
    for Ai in A:
        out.append([])
        for j in range(len(B[0]) if B else 0):
            total = sum(x * Bt[j] for x, Bt in zip(Ai, B))
            raw = total.to_bytes(out_len * width + total.bit_length() // 8 + 1,
                                 "little")
            out[-1].append([int.from_bytes(raw[k * width:(k + 1) * width],
                                           "little") % p
                            for k in range(out_len)])
    return out


def powersum_eval(coeffs: list[int], x: int, p: int) -> int:
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def dense_mat(field, rows):
    return field.asmat(rows)


def mat_mul(field, A, B):
    n = A.shape[0]
    p = field.p
    out = field.zeros((n, B.shape[1]))
    for i in range(n):
        for j in range(B.shape[1]):
            out[i, j] = sum(int(A[i, k]) * int(B[k, j]) for k in range(A.shape[1])) % p
    return out


def mat_pow(field, A, k):
    out = field.zeros(A.shape)
    for i in range(A.shape[0]):
        out[i, i] = 1
    for _ in range(k):
        out = mat_mul(field, out, A)
    return out


def perm_det(rows, p: int) -> int:
    """Determinant of a square list-of-lists matrix by the permutation
    (Leibniz) expansion (factorial; n <= 5)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n)
                         for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * int(rows[i][j]) % p
        total += term
    return total % p


def poly_det(entries):
    """Determinant of a square matrix of Poly entries by cofactor
    expansion along the first row (exponential; n <= 5)."""
    n = len(entries)
    field = entries[0][0].field
    if n == 1:
        return entries[0][0]
    acc = Poly.zero(field)
    sign = 1
    for j in range(n):
        minor = [[entries[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = entries[0][j].mul(poly_det(minor))
        acc = acc.add(term) if sign == 1 else acc.sub(term)
        sign = -sign
    return acc


def cofactor_charpoly(field, rows) -> Poly:
    """det(xI - A) via symbolic cofactor expansion."""
    n = rows.shape[0]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            base = [(-int(rows[i, j])) % field.p]
            if i == j:
                base.append(1)
            row.append(Poly(field, base))
        entries.append(row)
    return poly_det(entries)


def poly_eval_matrix(field, f: Poly, A):
    """f(A) for a dense matrix, by Horner."""
    n = A.shape[0]
    out = field.zeros((n, n))
    if f.is_zero():
        return out
    eye = field.zeros((n, n))
    for i in range(n):
        eye[i, i] = 1
    for c in f.coeffs[::-1]:
        out = (mat_mul(field, out, A) + int(c) * eye) % field.p
    return out
