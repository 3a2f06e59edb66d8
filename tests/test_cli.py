import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thpoly
from thpoly import (DenseMatrix, Poly, PrimeField, displacement_rank,
                    from_toeplitz, load_dmx, load_smx, random_structured,
                    save_smx)
from thpoly import cli
from thpoly.cli import main
from thpoly.errors import NotGenericError
from thpoly.selftest import run_selftest

P_NTT = 2013265921
F = PrimeField(P_NTT)


def write_identity_smx(path, n):
    field_col = [1] + [0] * (n - 1)
    save_smx(from_toeplitz(F, field_col, field_col), path)


def write_shift_smx(path, n):
    save_smx(from_toeplitz(F, [0, 1] + [0] * (n - 2), [0] * n), path)


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen ----------------------------------------------------------------------


def test_gen_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.smx"
    out2 = tmp_path / "b.smx"
    base = ["gen", "--n", 8, "--alpha-t", 2, "--alpha-h", 1, "--p", 101,
            "--seed", 1]
    assert run(capsys, *base, "--out", out1)[0] == 0
    assert run(capsys, *base, "--out", out2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gen_zero_widths(tmp_path, capsys):
    out = tmp_path / "z.smx"
    code, _, _ = run(capsys, "gen", "--n", 4, "--alpha-t", 0, "--alpha-h", 0,
                     "--seed", 1, "--out", out)
    assert code == 0
    assert load_smx(out).alpha == 0


def test_gen_rejects_composite_modulus(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--n", 4, "--p", 9, "--seed", 1,
                       "--out", tmp_path / "x.smx")
    assert code == 2
    assert "not prime" in err


def test_gen_draws_and_prints_seed(tmp_path, capsys):
    out = tmp_path / "s.smx"
    code, stdout, _ = run(capsys, "gen", "--n", 4, "--out", out)
    assert code == 0
    assert stdout.startswith("seed=")
    assert out.exists()


# -- minpoly ---------------------------------------------------------------------


def test_minpoly_identity(tmp_path, capsys):
    path = tmp_path / "eye.smx"
    write_identity_smx(path, 6)
    code, out, _ = run(capsys, "minpoly", path, "--seed", 3)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"{P_NTT - 1} 1"
    assert lines[1].startswith("verified=true mults=")


def test_minpoly_shift(tmp_path, capsys):
    path = tmp_path / "z.smx"
    write_shift_smx(path, 4)
    code, out, _ = run(capsys, "minpoly", path, "--seed", 3)
    assert code == 0
    assert out.splitlines()[0] == "0 0 0 0 1"


def test_minpoly_matches_oracle_subcommand(tmp_path, capsys):
    smx = tmp_path / "r.smx"
    dmx = tmp_path / "r.dmx"
    save_smx(random_structured(F, 10, 2, 1, 5), smx)
    code, out, _ = run(capsys, "minpoly", smx, "--seed", 8)
    assert code == 0
    structured_line = out.splitlines()[0]
    assert run(capsys, "reconstruct", smx, "--out", dmx)[0] == 0
    code, out, _ = run(capsys, "oracle-minpoly", dmx)
    assert code == 0
    assert out.splitlines()[0] == structured_line


def test_minpoly_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.smx"
    bad.write_text("SMX 2\n")
    code, _, err = run(capsys, "minpoly", bad, "--seed", 1)
    assert code == 2 and "error" in err


def test_minpoly_oversized_smx_is_a_parse_error(tmp_path, capsys):
    # a size of 10^15 with a 3-residue generator line is reported as a
    # format error (exit 2), not as a failed n x width allocation
    big = tmp_path / "big.smx"
    big.write_text("SMX 1\nfield 101\nsize 1000000000000000\ntpart 1\n1 2 3\n")
    code, out, err = run(capsys, "minpoly", big, "--seed", 1)
    assert code == 2 and out == "" and err.startswith("error:")


def test_minpoly_huge_zero_width_smx_is_a_usage_error(tmp_path, capsys):
    # zero widths parse at any size; the solve's first n-vector cannot be
    # allocated, which exits 2 with a message, not 1 with a traceback
    big = tmp_path / "big0.smx"
    big.write_text("SMX 1\nfield 101\nsize 1000000000000000\ntpart 0\nhpart 0\n")
    code, out, err = run(capsys, "minpoly", big, "--seed", 1)
    assert code == 2 and out == "" and err.startswith("error:")


# -- charpoly ---------------------------------------------------------------------


def test_charpoly_identity_block_escalation(tmp_path, capsys):
    path = tmp_path / "eye5.smx"
    write_identity_smx(path, 5)
    code, out, _ = run(capsys, "charpoly", path, "--seed", 2)
    assert code == 0
    # (x-1)^5 expanded
    want = [(-1) ** (5 - i) * [1, 5, 10, 10, 5, 1][i] % P_NTT for i in range(6)]
    assert out.splitlines()[0] == " ".join(str(c) for c in want)


def test_charpoly_shift(tmp_path, capsys):
    path = tmp_path / "z5.smx"
    write_shift_smx(path, 5)
    code, out, _ = run(capsys, "charpoly", path, "--seed", 2)
    assert code == 0
    assert out.splitlines()[0] == "0 0 0 0 0 1"


def test_charpoly_prints_verified_and_mults(tmp_path, capsys):
    smx = tmp_path / "v.smx"
    save_smx(random_structured(F, 12, 2, 1, 4), smx)
    code, out, _ = run(capsys, "charpoly", smx, "--beta", 2, "--seed", 3)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert len(lines[0].split()) == 13
    assert lines[1].startswith("verified=true mults=")
    assert int(lines[1].split("mults=")[1]) > 0


def test_charpoly_retry_seeds_distinct_across_user_seeds(tmp_path, capsys,
                                                         monkeypatch):
    path = tmp_path / "eye4.smx"
    write_identity_smx(path, 4)
    seen = {}

    def never_generic(A, beta, seed):
        seen.setdefault(user_seed, []).append(seed)
        raise NotGenericError(0, Poly.zero(A.field))

    monkeypatch.setattr(cli, "charpoly_generic", never_generic)
    for user_seed in range(8):
        code, _, _ = run(capsys, "charpoly", path, "--seed", user_seed,
                         "--retries", 3)
        assert code == 4
        assert seen[user_seed][0] == user_seed
    for user_seed in range(7):
        assert not set(seen[user_seed]) & set(seen[user_seed + 1])
    assert len({s for seeds in seen.values() for s in seeds}) == 8 * 3


def test_charpoly_not_generic_exit(tmp_path, capsys):
    path = tmp_path / "eye20.smx"
    write_identity_smx(path, 20)        # block escalation tops out at 16 < 20
    code, out, _ = run(capsys, "charpoly", path, "--seed", 2)
    assert code == 4
    lines = out.splitlines()
    assert lines[0].startswith("not-generic degree=")
    assert lines[1].startswith("partial-divisor: ")


def test_charpoly_matches_oracle_subcommand(tmp_path, capsys):
    smx = tmp_path / "c.smx"
    dmx = tmp_path / "c.dmx"
    save_smx(random_structured(F, 16, 2, 2, 6), smx)
    code, out, _ = run(capsys, "charpoly", smx, "--beta", 2, "--seed", 6)
    assert code == 0
    structured_line = out.splitlines()[0]
    run(capsys, "reconstruct", smx, "--out", dmx)
    code, out, _ = run(capsys, "oracle-charpoly", dmx)
    assert code == 0
    assert out.splitlines()[0] == structured_line


# -- verify -----------------------------------------------------------------------


def test_verify_accept_reject(tmp_path, capsys):
    smx = tmp_path / "eye.smx"
    write_identity_smx(smx, 5)
    good = tmp_path / "good.poly"
    good.write_text(f"{P_NTT - 1} 1\n")
    bad = tmp_path / "bad.poly"
    bad.write_text("0 1\n")
    code, out, _ = run(capsys, "verify", smx, good, "--seed", 1)
    assert code == 0 and out.strip() == "accept"
    code, out, _ = run(capsys, "verify", smx, bad, "--seed", 1)
    assert code == 3 and out.strip() == "reject"


@pytest.mark.parametrize("count", [0, -1])
def test_counts_below_one_are_usage_errors(tmp_path, capsys, count):
    smx = tmp_path / "eye.smx"
    write_identity_smx(smx, 5)
    code, out, err = run(capsys, "charpoly", smx, "--retries", count, "--seed", 1)
    assert code == 2 and out == "" and "--retries" in err
    # rejected while parsing, before any file is opened
    missing = tmp_path / "missing.smx"
    for args in (["minpoly", missing], ["verify", missing, tmp_path / "f.poly"]):
        code, out, err = run(capsys, *args, "--trials", count, "--seed", 1)
        assert code == 2 and out == "" and "--trials" in err
        assert "No such file" not in err


@pytest.mark.parametrize("beta", [0, -1])
def test_beta_below_one_is_usage_error(tmp_path, capsys, beta):
    # rejected while parsing: no CSV row, no file opened
    code, out, err = run(capsys, "bench", "--sizes", 4, "--algorithms",
                         "minpoly-naive", "--beta", beta)
    assert code == 2 and out == "" and "--beta" in err
    code, out, err = run(capsys, "charpoly", tmp_path / "missing.smx",
                         "--beta", beta, "--seed", 1)
    assert code == 2 and out == "" and "--beta" in err
    assert "No such file" not in err


# -- reconstruct ------------------------------------------------------------------


def test_reconstruct_displacement_rank(tmp_path, capsys):
    smx = tmp_path / "t.smx"
    dmx = tmp_path / "t.dmx"
    run(capsys, "gen", "--n", 10, "--alpha-t", 2, "--alpha-h", 0, "--seed", 4,
        "--out", smx)
    assert run(capsys, "reconstruct", smx, "--out", dmx)[0] == 0
    M = load_dmx(dmx)
    # Toeplitz-like part: small down-shift displacement rank; the Hankel
    # part is only small-rank after J conjugation
    assert displacement_rank(M) <= 2
    hank = random_structured(F, 10, 0, 2, 4)
    flipped = DenseMatrix(F, hank.reconstruct()[::-1, :].copy())
    assert displacement_rank(flipped) <= 2


# -- bench -------------------------------------------------------------------------


def test_bench_csv_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "b1.csv"
    out2 = tmp_path / "b2.csv"
    base = ["bench", "--sizes", "16,24", "--algorithms",
            "minpoly-bsgs,dense-charpoly", "--seeds", "1,2", "--alpha-t", 2,
            "--alpha-h", 0]
    assert run(capsys, *base, "--out", out1)[0] == 0
    assert run(capsys, *base, "--out", out2)[0] == 0
    rows1 = out1.read_text().splitlines()
    rows2 = out2.read_text().splitlines()
    assert rows1[0] == "n,alphaT,alphaH,beta,algorithm,field_mults,wall_ns,seed"
    assert len(rows1) == 1 + 2 * 2 * 2
    strip = lambda rows: [",".join(r.split(",")[:6] + r.split(",")[7:])
                          for r in rows]
    assert strip(rows1) == strip(rows2)        # identical apart from wall_ns


def test_bench_json_records(capsys):
    # one record per case, with p, and the CSV's counts
    base = ["bench", "--sizes", "8,12", "--algorithms", "minpoly-naive",
            "--beta", 1, "--p", 101]
    code, out, _ = run(capsys, *base, "--json")
    assert code == 0
    records = json.loads(out)
    assert [list(r) for r in records] == [
        ["n", "alphaT", "alphaH", "beta", "algorithm", "p", "seed",
         "field_mults", "wall_ns"]] * 2
    assert [(r["n"], r["p"], r["beta"]) for r in records] == [(8, 101, 1),
                                                              (12, 101, 1)]
    csv = run(capsys, *base)[1].splitlines()[1:]
    assert [int(row.split(",")[5]) for row in csv] == [
        r["field_mults"] for r in records]


def test_bench_empty_grid(tmp_path, capsys):
    code, _, err = run(capsys, "bench", "--sizes", "", "--algorithms",
                       "minpoly-bsgs", "--out", tmp_path / "x.csv")
    assert code == 2 and "empty" in err


def test_bench_unknown_algorithm(tmp_path, capsys):
    code, _, err = run(capsys, "bench", "--sizes", "8", "--algorithms",
                       "quantum", "--out", tmp_path / "x.csv")
    assert code == 2 and "unknown algorithm" in err


def test_bench_not_generic_exit(capsys):
    # bench does not retry: the zero matrix's NotGenericError reaches
    # main's handler
    code, _, err = run(capsys, "bench", "--sizes", 4, "--algorithms",
                       "charpoly-block", "--alpha-t", 0, "--alpha-h", 0)
    assert code == 4
    assert err.startswith("error: generating polynomial has low degree")


# -- selftest ----------------------------------------------------------------------


def test_selftest_green_and_repeatable(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failures")
    lines = []
    assert run_selftest(write=lines.append)
    assert "\n".join(lines) + "\n" == out      # identical summary text


def test_selftest_exit_one_on_failure():
    def broken():
        raise AssertionError("forced")
    lines = []
    assert run_selftest(write=lines.append, checks=(broken,)) is False
    assert lines[-1].endswith("1 failures")


# Runs check_homomorphism under `python -O` with the block matvec off by one
# in row 0; -O strips assert statements, so a check written as one passes.
_BROKEN_MATVEC_SELFTEST = """
import sys
from thpoly import selftest, structured
good = structured.THMatrix.matvec_block
def off_by_one(self, V, counter=None):
    out = good(self, V, counter)
    out[0] = (out[0] + 1) % self.field.p
    return out
structured.THMatrix.matvec_block = off_by_one
print("optimize", sys.flags.optimize)
sys.exit(0 if selftest.run_selftest(checks=(selftest.check_homomorphism,)) else 1)
"""


def test_selftest_fails_under_optimize_flag():
    env = dict(os.environ, PYTHONPATH=str(Path(thpoly.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_MATVEC_SELFTEST],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.stdout.startswith("optimize 1\n"), proc.stderr
    assert "FAIL check_homomorphism" in proc.stdout
    assert proc.returncode == 1


def test_usage_error_exit_code(capsys):
    assert main(["minpoly"]) == 2       # missing path
    capsys.readouterr()
