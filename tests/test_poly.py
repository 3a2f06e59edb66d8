import math

import numpy as np
import pytest

from thpoly import (MultCounter, Poly, PrimeField, berlekamp_massey,
                    exhaustive_lfsr, interpolate, poly_gcd, poly_lcm)
from thpoly.errors import (BothZeroError, DivisionByZeroError,
                           DuplicatePointError, EmptySequenceError,
                           FieldMismatchError, LengthMismatchError)

import _ref

P_NTT = 2013265921


def test_mul_examples():
    f7 = PrimeField(7)
    assert Poly(f7, [1, 1]).mul(Poly(f7, [1, 6])).to_list() == [1, 0, 6]
    assert Poly(f7, [3, 1]).mul(Poly.zero(f7)).is_zero()


@pytest.mark.parametrize("p", [P_NTT, (1 << 31) - 1, (1 << 61) - 1])
def test_mul_random_vs_schoolbook(p):
    f = PrimeField(p)
    rng = f.rng(5)
    a = [int(x) for x in f.rand_vec(rng, 201)]
    b = [int(x) for x in f.rand_vec(rng, 201)]
    got = Poly(f, a).mul(Poly(f, b)).to_list()
    assert got == _ref.schoolbook_mul(a, b, f.p)


def test_conv_vs_python_int_schoolbook():
    # both routes of `conv` at p = 2013265921: np.convolve while one
    # operand has at most 2 terms, the FFT kernel beyond
    f = PrimeField(P_NTT)
    rng = np.random.default_rng(6)
    lengths = [(1, 1), (1, 513), (513, 1), (2, 513), (513, 513)]
    lengths += [tuple(int(x) for x in rng.integers(1, 514, size=2))
                for _ in range(40)]
    for la, lb in lengths:
        a = f.rand_vec(rng, la).tolist()
        b = f.rand_vec(rng, lb).tolist()
        want = _ref.schoolbook_mul(a, b, f.p)
        want += [0] * (la + lb - 1 - len(want))
        assert f.conv(f.asvec(a), f.asvec(b)).tolist() == want


@pytest.mark.parametrize("p", [3, 101, 7340033, P_NTT, (1 << 31) - 1,
                               (1 << 61) - 1])
def test_conv_charges_conv_charge(p):
    f = PrimeField(p)
    rng = f.rng(8)
    for la, lb in [(1, 1), (1, 9), (9, 1), (2, 2), (3, 17), (64, 64),
                   (257, 200)]:
        counter = MultCounter()
        f.conv(f.rand_vec(rng, la), f.rand_vec(rng, lb), counter)
        assert counter.mults == f.conv_charge(la, lb)


def test_mul_field_mismatch():
    with pytest.raises(FieldMismatchError):
        Poly(PrimeField(7), [1]).mul(Poly(PrimeField(101), [1]))


def test_divrem_examples():
    f7 = PrimeField(7)
    q, r = Poly(f7, [6, 0, 1]).divrem(Poly(f7, [6, 1]))   # (x^2-1) / (x-1)
    assert q.to_list() == [1, 1] and r.is_zero()
    a = Poly(f7, [2, 5, 3])
    q, r = a.divrem(a)
    assert q.to_list() == [1] and r.is_zero()
    with pytest.raises(DivisionByZeroError):
        a.divrem(Poly.zero(f7))


def test_divrem_reconstruction():
    f = PrimeField(101)
    rng = f.rng(7)
    for _ in range(20):
        a = Poly(f, f.rand_vec(rng, 10))
        b = Poly(f, f.rand_vec(rng, 5))
        if b.is_zero():
            continue
        q, r = a.divrem(b)
        assert q.mul(b).add(r) == a
        assert r.degree < b.degree


def test_zero_poly_degree_sentinel():
    f = PrimeField(7)
    assert Poly.zero(f).degree == -math.inf
    assert Poly.zero(f).degree < Poly.one(f).degree


def test_gcd_examples():
    f = PrimeField(101)
    g = poly_gcd(Poly(f, [100, 0, 1]), Poly(f, [100, 1]))
    assert g.to_list() == [100, 1]                        # x - 1
    h = Poly(f, [3, 5, 7])
    assert poly_gcd(h, Poly.zero(f)) == h.monic()
    with pytest.raises(BothZeroError):
        poly_gcd(Poly.zero(f), Poly.zero(f))


def test_gcd_constructed_factors():
    f = PrimeField(101)
    rng = f.rng(8)
    base = Poly(f, [int(x) for x in f.rand_vec(rng, 4)] + [1])
    g = Poly(f, [1, 1])           # coprime cofactors
    h = Poly(f, [2, 0, 1])
    assert poly_gcd(base.mul(g), base.mul(h)) == base.monic()
    lcm = poly_lcm(base.mul(g), base.mul(h))
    assert lcm == base.mul(g).mul(h).monic()


def test_eval_examples():
    f7 = PrimeField(7)
    assert Poly(f7, [1, 2]).eval_at(3) == 0
    assert list(Poly.zero(f7).eval_many([0, 1, 2])) == [0, 0, 0]


def test_eval_many_vs_powersum():
    f = PrimeField(101)
    rng = f.rng(9)
    coeffs = [int(x) for x in f.rand_vec(rng, 9)]
    pts = [int(x) for x in f.rand_vec(rng, 10)]
    got = Poly(f, coeffs).eval_many(pts)
    assert [int(v) for v in got] == [_ref.powersum_eval(coeffs, x, f.p) for x in pts]


def test_interpolate_examples():
    f7 = PrimeField(7)
    assert interpolate(f7, [0, 1], [1, 3]).to_list() == [1, 2]
    const = interpolate(f7, [0, 1, 2], [4, 4, 4])
    assert const.to_list() == [4]
    with pytest.raises(DuplicatePointError):
        interpolate(f7, [1, 1], [2, 3])
    with pytest.raises(LengthMismatchError):
        interpolate(f7, [1, 2], [3])


def test_interpolate_roundtrip():
    f = PrimeField(101)
    rng = f.rng(10)
    poly = Poly(f, [int(x) for x in f.rand_vec(rng, 7)] + [1])
    pts = list(range(8))
    back = interpolate(f, pts, [int(v) for v in poly.eval_many(pts)])
    assert back == poly


def test_interpolate_roundtrip_big_primes():
    for p in ((1 << 61) - 1, (1 << 62) - 57):
        f = PrimeField(p)
        rng = f.rng(11)
        poly = Poly(f, [int(x) for x in f.rand_vec(rng, 9)] + [1])
        pts = [int(x) for x in f.rand_vec(rng, 10)]
        values = [int(v) for v in poly.eval_many(pts)]
        assert values == [_ref.powersum_eval(poly.to_list(), x, p) for x in pts]
        back = interpolate(f, pts, values)
        assert back.coeffs.dtype == np.int64 and back == poly


def test_interpolate_unsorted_points_and_charge():
    # unsorted, unevenly spaced points: each level has several distinct
    # denominators; the charge is pinned to the scalar schedule's
    f = PrimeField(101)
    pts = [17, 3, 40, 8, 25, 1, 33, 90]
    vals = [5, 0, 77, 12, 0, 3, 100, 41]
    counter = MultCounter()
    got = interpolate(f, pts, vals, counter)
    assert got.to_list() == [52, 87, 94, 4, 11, 40, 72, 47]
    assert [_ref.powersum_eval(got.to_list(), x, f.p) for x in pts] == vals
    assert counter.mults == 182


def test_berlekamp_massey_fibonacci():
    f = PrimeField(101)
    got = berlekamp_massey(f, [1, 1, 2, 3, 5, 8, 13, 21])
    assert got.to_list() == [100, 100, 1]                 # x^2 - x - 1


def test_berlekamp_massey_zero_sequence():
    f = PrimeField(101)
    assert berlekamp_massey(f, [0, 0, 0, 0]).to_list() == [1]
    with pytest.raises(EmptySequenceError):
        berlekamp_massey(f, [])


def test_berlekamp_massey_recovers_recurrence():
    f = PrimeField(101)
    rng = f.rng(11)
    for _ in range(20):
        taps = [int(x) for x in f.rand_vec(rng, 5)]       # monic degree 5
        seq = [int(x) for x in f.rand_vec(rng, 5)]
        for _ in range(7):
            seq.append((-sum(t * s for t, s in zip(taps, seq[-5:]))) % f.p)
        got = berlekamp_massey(f, seq)
        assert got.degree <= 5
        # output annihilates the sequence at every applicable offset
        d = int(got.degree)
        for i in range(len(seq) - d):
            acc = sum(got.coeff(t) * seq[i + t] for t in range(d + 1)) % f.p
            assert acc == 0
        if got.degree == 5:
            assert got.to_list() == taps + [1]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_berlekamp_massey_minimality_exhaustive(p):
    f = PrimeField(p)
    rng = np.random.default_rng(p)
    for _ in range(60):
        length = int(rng.integers(1, 9))
        seq = [int(x) for x in rng.integers(0, p, size=length)]
        bm = berlekamp_massey(f, seq)
        if bm.degree > 4:
            continue
        brute = exhaustive_lfsr(f, seq, 4)
        assert brute is not None
        assert bm.degree == brute.degree
