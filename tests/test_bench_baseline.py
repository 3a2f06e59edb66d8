"""The committed count baseline: `BENCH_baseline.json` holds the
`thpoly bench --json` records of a fixed grid (see README), and its rows
with n <= 256 are recomputed here, all but the T+H-like BSGS ones, whose
structure-losing power takes seconds.  Field multiplications must match
exactly; wall times are not compared.  A change that moves a count on
purpose re-pins the file."""

import json
from pathlib import Path

import pytest

from thpoly.bench import run_case
from thpoly.field import PrimeField

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"
RECORDS = json.loads(BASELINE.read_text())
CHECKED = [r for r in RECORDS if r["n"] <= 256
           and not (r["alphaH"] and r["algorithm"] == "minpoly-bsgs")]


def test_baseline_grid():
    # n in {128, 256, 512, 1024}, Toeplitz- and T+H-like, minpoly naive and
    # bsgs, charpoly beta 1 and 2, two primes; T+H-like bsgs at n <= 256
    assert len(RECORDS) == 60 and len(CHECKED) == 28
    assert {r["p"] for r in RECORDS} == {2013265921, (1 << 61) - 1}


@pytest.mark.parametrize("record", CHECKED, ids=lambda r: (
    f"{r['algorithm']}-n{r['n']}-a{r['alphaT']}{r['alphaH']}"
    f"-b{r['beta']}-p{r['p']}"))
def test_baseline_counts(record):
    got = run_case(PrimeField(record["p"]), record["n"], record["alphaT"],
                   record["alphaH"], record["beta"], record["algorithm"],
                   record["seed"])
    assert got.field_mults == record["field_mults"]
