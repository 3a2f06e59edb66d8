"""CLI transcript: stdout bytes, exit codes and output-file digests of the
main commands on small inputs at primes on both sides of 2**31, compared
with the fixture `cli_transcript.json`.

Regenerate the fixture (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from thpoly.cli import main

FIXTURE = Path(__file__).with_name("cli_transcript.json")

PRIMES = (101, 2013265921, (1 << 31) + 11, (1 << 32) + 15, (1 << 40) - 87,
          (1 << 61) - 1, (1 << 62) - 57)
SIZES = (1, 5, 17)


def _commands(p: int, n: int):
    """(argv, output file or None) of one case, paths relative to its
    directory; `verify` reads the naive minpoly's line, and a second time
    that line with its constant term bumped."""
    gen = ["gen", "--n", n, "--alpha-t", 2, "--alpha-h", 1, "--p", p,
           "--seed", 7 + n, "--out", "a.smx"]
    return [
        (gen, "a.smx"),
        (["minpoly", "a.smx", "--mode", "naive", "--seed", 3], None),
        (["minpoly", "a.smx", "--mode", "bsgs", "--seed", 3], None),
        (["charpoly", "a.smx", "--beta", 1, "--seed", 4], None),
        (["charpoly", "a.smx", "--beta", 2, "--seed", 4], None),
        (["verify", "a.smx", "f.txt", "--seed", 5], None),
        (["verify", "a.smx", "g.txt", "--seed", 5], None),
        (["reconstruct", "a.smx", "--out", "a.dmx"], "a.dmx"),
        (["oracle-minpoly", "a.dmx"], None),
        (["oracle-charpoly", "a.dmx"], None),
    ]


def _transcript(p: int, n: int, root: Path) -> list:
    records = []
    for argv, out in _commands(p, n):
        args = [str(root / a) if str(a).endswith((".smx", ".dmx", ".txt"))
                else str(a) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(args)
        text = stdout.getvalue()
        if argv[0] == "minpoly" and argv[3] == "naive":
            line = text.splitlines()[0]
            (root / "f.txt").write_text(line + "\n")
            coeffs = [int(c) for c in line.split()]
            coeffs[0] = (coeffs[0] + 1) % p
            (root / "g.txt").write_text(" ".join(map(str, coeffs)) + "\n")
        record = {"argv": [str(a) for a in argv], "exit": code,
                  "stdout": text}
        if out is not None:
            record["sha256"] = hashlib.sha256(
                (root / out).read_bytes()).hexdigest()
        records.append(record)
    return records


def _cases():
    return [(p, n) for p in PRIMES for n in SIZES]


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("p,n", _cases())
def test_cli_transcript(fixture, tmp_path, p, n):
    assert _transcript(p, n, tmp_path) == fixture[f"{p}/{n}"]


if __name__ == "__main__":
    import tempfile
    out = {}
    for p, n in _cases():
        with tempfile.TemporaryDirectory() as tmp:
            out[f"{p}/{n}"] = _transcript(p, n, Path(tmp))
    FIXTURE.write_text(json.dumps(out, indent=1) + "\n")
    sys.exit(0)
