"""Command-line interface.

Exit codes: 0 success, 1 selftest failure, 2 usage/parse errors (an
input too large to allocate counts as one), 3 verification reject, 4
non-generic after retries.  Every command is
deterministic given --seed; without it a fresh seed is drawn and printed
as `seed=<n>` for replay.
"""

from __future__ import annotations

import argparse
import secrets
import sys

from . import bench as bench_mod
from .dense import DenseMatrix, dense_charpoly, dense_minpoly
from .errors import NotGenericError, ThpolyError
from .field import PrimeField, derive_seed
from .formats import (load_dmx, load_smx, poly_from_line, poly_to_line,
                      save_dmx, save_smx)
from .selftest import run_selftest
from .structured import random_structured
from .wiedemann import charpoly_generic, minpoly, verify_annihilates

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_USAGE = 2
EXIT_REJECT = 3
EXIT_NOT_GENERIC = 4


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(32)
    print(f"seed={seed}")
    return seed


def cmd_gen(args) -> int:
    field = PrimeField(args.p)
    seed = _resolve_seed(args)
    A = random_structured(field, args.n, args.alpha_t, args.alpha_h, seed)
    save_smx(A, args.out)
    return EXIT_OK


def cmd_minpoly(args) -> int:
    A = load_smx(args.path)
    seed = _resolve_seed(args)
    report = minpoly(A, seed, mode=args.mode, verify_trials=args.trials)
    print(poly_to_line(report.polynomial))
    print(f"verified={'true' if report.verified else 'false'} "
          f"mults={report.field_mult_count}")
    return EXIT_OK if report.verified else EXIT_REJECT


def cmd_charpoly(args) -> int:
    A = load_smx(args.path)
    seed = _resolve_seed(args)
    last = None
    beta = args.beta
    for attempt in range(args.retries):
        # fresh seeds cannot fix a non-cyclic matrix, so the block size
        # escalates as well (up to n the determinant always reaches degree n);
        # retries draw derived seeds, so no attempt of one user seed repeats
        # an attempt of another
        beta_k = min(A.n, beta * 4 ** attempt)
        attempt_seed = (seed if attempt == 0
                        else derive_seed(seed, "charpoly-retry", attempt))
        try:
            report = charpoly_generic(A, beta_k, attempt_seed)
            print(poly_to_line(report.polynomial))
            print(f"verified=true mults={report.field_mult_count}")
            return EXIT_OK
        except NotGenericError as exc:
            last = exc
    print(f"not-generic degree={last.degree} retries={args.retries}")
    print(f"partial-divisor: {poly_to_line(last.partial)}")
    return EXIT_NOT_GENERIC


def cmd_verify(args) -> int:
    A = load_smx(args.path)
    with open(args.poly, "r", encoding="ascii") as fh:
        f = poly_from_line(A.field, fh.readline())
    seed = _resolve_seed(args)
    ok = verify_annihilates(A, f, args.trials, seed)
    print("accept" if ok else "reject")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_reconstruct(args) -> int:
    A = load_smx(args.path)
    save_dmx(DenseMatrix(A.field, A.reconstruct()), args.out)
    return EXIT_OK


def cmd_oracle_charpoly(args) -> int:
    M = load_dmx(args.path)
    print(poly_to_line(dense_charpoly(M)))
    return EXIT_OK


def cmd_oracle_minpoly(args) -> int:
    M = load_dmx(args.path)
    print(poly_to_line(dense_minpoly(M)))
    return EXIT_OK


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok:
            out.append(int(tok))
    return out


def cmd_bench(args) -> int:
    sizes = _int_list(args.sizes)
    algorithms = [tok.strip() for tok in args.algorithms.split(",") if tok.strip()]
    seeds = _int_list(args.seeds)
    if not sizes or not algorithms or not seeds:
        raise ThpolyError("empty benchmark grid")
    for algorithm in algorithms:
        if algorithm not in bench_mod.ALGORITHMS:
            raise ThpolyError(f"unknown algorithm {algorithm!r}; choose from "
                              f"{', '.join(bench_mod.ALGORITHMS)}")
    field = PrimeField(args.p)
    records = bench_mod.run_grid(field, sizes, args.alpha_t, args.alpha_h,
                                 args.beta, algorithms, seeds)
    text = (bench_mod.to_json if args.json else bench_mod.to_csv)(records)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return EXIT_OK


def cmd_selftest(args) -> int:
    return EXIT_OK if run_selftest() else EXIT_SELFTEST


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thpoly",
        description="Minimal and characteristic polynomials of structured "
                    "matrices over prime fields")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a seeded random structured matrix")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--alpha-t", type=int, default=2)
    gen.add_argument("--alpha-h", type=int, default=1)
    gen.add_argument("--p", type=int, default=2013265921)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    mp = sub.add_parser("minpoly", help="minimal polynomial of an SMX matrix")
    mp.add_argument("path")
    mp.add_argument("--mode", choices=("naive", "bsgs"), default="bsgs")
    mp.add_argument("--seed", type=int, default=None)
    mp.add_argument("--trials", type=positive_int, default=2)
    mp.set_defaults(func=cmd_minpoly)

    cp = sub.add_parser("charpoly", help="characteristic polynomial of an SMX matrix")
    cp.add_argument("path")
    cp.add_argument("--beta", type=positive_int, default=1)
    cp.add_argument("--seed", type=int, default=None)
    cp.add_argument("--retries", type=positive_int, default=3)
    cp.set_defaults(func=cmd_charpoly)

    ver = sub.add_parser("verify", help="check that a polynomial annihilates an SMX matrix")
    ver.add_argument("path")
    ver.add_argument("poly")
    ver.add_argument("--trials", type=positive_int, default=2)
    ver.add_argument("--seed", type=int, default=None)
    ver.set_defaults(func=cmd_verify)

    rec = sub.add_parser("reconstruct", help="materialize an SMX matrix as DMX")
    rec.add_argument("path")
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_reconstruct)

    ocp = sub.add_parser("oracle-charpoly", help="dense charpoly of a DMX matrix")
    ocp.add_argument("path")
    ocp.set_defaults(func=cmd_oracle_charpoly)

    omp = sub.add_parser("oracle-minpoly", help="dense minpoly of a DMX matrix")
    omp.add_argument("path")
    omp.set_defaults(func=cmd_oracle_minpoly)

    bn = sub.add_parser("bench", help="operation-counting benchmark grid to CSV "
                                      "or JSON")
    bn.add_argument("--sizes", required=True, help="comma-separated dimensions")
    bn.add_argument("--algorithms", required=True,
                    help=f"comma-separated subset of {','.join(bench_mod.ALGORITHMS)}")
    bn.add_argument("--seeds", default="1", help="comma-separated seeds")
    bn.add_argument("--alpha-t", type=int, default=2)
    bn.add_argument("--alpha-h", type=int, default=0)
    bn.add_argument("--beta", type=positive_int, default=2)
    bn.add_argument("--p", type=int, default=2013265921)
    bn.add_argument("--out", default="-")
    bn.add_argument("--json", action="store_true",
                    help="one JSON record per case, with p, instead of CSV")
    bn.set_defaults(func=cmd_bench)

    st = sub.add_parser("selftest", help="run the reduced invariant suite")
    st.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except NotGenericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_GENERIC
    except (ThpolyError, OSError, ValueError, MemoryError) as exc:
        # MemoryError: e.g. an SMX of zero widths parses at any size, and
        # fails only when a solve allocates its n-vectors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
