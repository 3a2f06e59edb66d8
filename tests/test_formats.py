import numpy as np
import pytest

from thpoly import (DenseMatrix, Poly, PrimeField, dump_dmx, dump_smx,
                    load_smx, parse_dmx, parse_smx, poly_from_line,
                    poly_to_line, random_structured, save_smx)
from thpoly.errors import FormatError, NotPrimeError


def test_smx_roundtrip_bytes():
    f = PrimeField(101)
    A = random_structured(f, 6, 2, 1, 9)
    text = dump_smx(A)
    again = parse_smx(text)
    assert dump_smx(again) == text
    assert np.array_equal(again.reconstruct(), A.reconstruct())


def test_smx_zero_widths():
    f = PrimeField(101)
    A = random_structured(f, 4, 0, 0, 1)
    text = dump_smx(A)
    assert "tpart 0" in text and "hpart 0" in text
    assert parse_smx(text).alpha == 0


def test_smx_layout():
    f = PrimeField(7)
    A = random_structured(f, 3, 1, 0, 2)
    lines = dump_smx(A).splitlines()
    assert lines[0] == "SMX 1"
    assert lines[1] == "field 7"
    assert lines[2] == "size 3"
    assert lines[3] == "tpart 1"
    assert lines[6] == "hpart 0"


def test_smx_file_io(tmp_path):
    f = PrimeField(101)
    A = random_structured(f, 5, 2, 2, 3)
    path = tmp_path / "m.smx"
    save_smx(A, path)
    B = load_smx(path)
    assert np.array_equal(B.reconstruct(), A.reconstruct())


@pytest.mark.parametrize("mutate,exc", [
    (lambda t: t.replace("SMX 1", "SMX 2"), FormatError),
    (lambda t: t.replace("field 101", "field 100"), NotPrimeError),
    (lambda t: t.replace("size 6", "size six"), FormatError),
    (lambda t: t + "trailing junk handled below\n", None),
    (lambda t: t.replace("tpart 2", "tpart 3"), FormatError),
    (lambda t: "\n".join(t.splitlines()[:3]), FormatError),     # end of file
    (lambda t: t.replace("tpart 2", "hpart 2"), FormatError),
    (lambda t: t.replace("size 6", "size 6 6"), FormatError),
    (lambda t: t.replace("size 6", "size 0"), FormatError),
    (lambda t: t.replace("hpart 1", "hpart -1"), FormatError),
])
def test_smx_parse_errors(mutate, exc):
    f = PrimeField(101)
    text = dump_smx(random_structured(f, 6, 2, 1, 4))
    mutated = mutate(text)
    if exc is None:
        parse_smx(mutated)          # extra trailing lines are ignored
    else:
        with pytest.raises(exc):
            parse_smx(mutated)


def test_smx_rejects_out_of_range_residue():
    f = PrimeField(7)
    text = dump_smx(random_structured(f, 3, 1, 0, 5))
    lines = text.splitlines()
    lines[4] = "1 2 9"                                    # 9 >= p
    with pytest.raises(FormatError):
        parse_smx("\n".join(lines) + "\n")


def test_dmx_roundtrip():
    f = PrimeField(101)
    M = DenseMatrix(f, f.rand_vec(f.rng(6), (5, 5)))
    text = dump_dmx(M)
    again = parse_dmx(text)
    assert dump_dmx(again) == text
    assert np.array_equal(again.rows, M.rows)


@pytest.mark.parametrize("mutate,exc", [
    (lambda t: t.replace("DMX 1", "DMX 2"), FormatError),
    (lambda t: t.replace("field 101", "field 100"), NotPrimeError),
    (lambda t: t.replace("size 5", "size five"), FormatError),
    (lambda t: t + "trailing junk handled below\n", None),
    (lambda t: t.replace("size 5", "size 0"), FormatError),
    (lambda t: "\n".join(t.splitlines()[:-1]), FormatError),    # end of file
    (lambda t: t.replace("size 5", "rows 5"), FormatError),
])
def test_dmx_parse_errors(mutate, exc):
    f = PrimeField(101)
    text = dump_dmx(DenseMatrix(f, f.rand_vec(f.rng(6), (5, 5))))
    mutated = mutate(text)
    if exc is None:
        parse_dmx(mutated)          # extra trailing lines are ignored
    else:
        with pytest.raises(exc):
            parse_dmx(mutated)


def test_poly_line_roundtrip():
    f = PrimeField(101)
    poly = Poly(f, [3, 0, 5, 1])
    assert poly_from_line(f, poly_to_line(poly)) == poly
    assert poly_to_line(Poly.zero(f)) == ""
    assert poly_from_line(f, "") == Poly.zero(f)
    assert poly_from_line(f, "  \n") == Poly.zero(f)
    with pytest.raises(FormatError):
        poly_from_line(f, "3 x 5")
