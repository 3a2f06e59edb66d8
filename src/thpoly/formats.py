"""Line-oriented ASCII interchange formats.

SMX carries a structured matrix as its generator columns, DMX a dense
matrix row by row, and polynomials travel as one line of space-separated
canonical residues low-to-high (empty line = zero polynomial).  Emission
is canonical, so equal objects produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .dense import DenseMatrix
from .errors import FormatError
from .field import PrimeField
from .poly import Poly
from .structured import THMatrix, ToeplitzCore


def _fmt_vec(vec) -> str:
    return " ".join(str(int(x)) for x in vec)


def _parse_residues(line: str, expected: int, p: int, what: str) -> list[int]:
    parts = line.split()
    if len(parts) != expected:
        raise FormatError(f"{what}: expected {expected} residues, got {len(parts)}")
    out = []
    for tok in parts:
        try:
            v = int(tok)
        except ValueError:
            raise FormatError(f"{what}: bad residue {tok!r}") from None
        if not 0 <= v < p:
            raise FormatError(f"{what}: residue {v} outside [0, {p})")
        out.append(v)
    return out


class _Lines:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, what: str) -> str:
        if self.pos >= len(self.lines):
            raise FormatError(f"unexpected end of file while reading {what}")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_tagged(self, tag: str) -> list[str]:
        line = self.next(tag)
        parts = line.split()
        if not parts or parts[0] != tag:
            raise FormatError(f"expected {tag!r} line, got {line!r}")
        return parts[1:]


def _tagged_int(lines: _Lines, tag: str) -> int:
    rest = lines.expect_tagged(tag)
    if len(rest) != 1:
        raise FormatError(f"{tag!r} line needs exactly one value")
    try:
        return int(rest[0])
    except ValueError:
        raise FormatError(f"{tag!r} value {rest[0]!r} is not an integer") from None


# -- SMX ---------------------------------------------------------------------


def dump_smx(A: THMatrix) -> str:
    out = ["SMX 1", f"field {A.field.p}", f"size {A.n}"]
    for tag, core in (("tpart", A.P), ("hpart", A.Q)):
        out.append(f"{tag} {core.width}")
        for j in range(core.width):
            out.append(_fmt_vec(core.G[:, j]))
        for j in range(core.width):
            out.append(_fmt_vec(core.H[:, j]))
    return "\n".join(out) + "\n"


def parse_smx(text: str) -> THMatrix:
    lines = _Lines(text)
    header = lines.next("header")
    if header.split() != ["SMX", "1"]:
        raise FormatError(f"bad SMX header {header!r}")
    p = _tagged_int(lines, "field")
    field = PrimeField(p)
    n = _tagged_int(lines, "size")
    if n < 1:
        raise FormatError(f"bad size {n}")
    cores = []
    for tag in ("tpart", "hpart"):
        width = _tagged_int(lines, tag)
        if width < 0:
            raise FormatError(f"negative width in {tag!r}")
        # every line is read before an n x width array is made, so a bad
        # size fails on its first generator line, not in the allocation;
        # the copy makes them row-major, like every other generator array
        G, H = (np.reshape([_parse_residues(lines.next(tag), n, p, f"{tag} {X}[{j}]")
                            for j in range(width)], (width, n)).T.copy()
                for X in "GH")
        cores.append(ToeplitzCore(field, n, G, H))
    return THMatrix(field, cores[0], cores[1])


def save_smx(A: THMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_smx(A))


def load_smx(path) -> THMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_smx(fh.read())


# -- DMX ---------------------------------------------------------------------


def dump_dmx(M: DenseMatrix) -> str:
    out = ["DMX 1", f"field {M.field.p}", f"size {M.n}"]
    for i in range(M.n):
        out.append(_fmt_vec(M.rows[i]))
    return "\n".join(out) + "\n"


def parse_dmx(text: str) -> DenseMatrix:
    lines = _Lines(text)
    header = lines.next("header")
    if header.split() != ["DMX", "1"]:
        raise FormatError(f"bad DMX header {header!r}")
    p = _tagged_int(lines, "field")
    field = PrimeField(p)
    n = _tagged_int(lines, "size")
    if n < 1:
        raise FormatError(f"bad size {n}")
    rows = [_parse_residues(lines.next("row"), n, p, f"row {i}") for i in range(n)]
    return DenseMatrix(field, rows)


def save_dmx(M: DenseMatrix, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_dmx(M))


def load_dmx(path) -> DenseMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return parse_dmx(fh.read())


# -- polynomial lines ----------------------------------------------------------


def poly_to_line(f: Poly) -> str:
    return _fmt_vec(f.coeffs)


def poly_from_line(field: PrimeField, line: str) -> Poly:
    line = line.strip()
    if not line:
        return Poly.zero(field)
    coeffs = _parse_residues(line, len(line.split()), field.p, "polynomial")
    return Poly(field, coeffs)
