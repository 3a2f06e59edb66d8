"""Operation-counting benchmark harness.

Field multiplications (see counting.py for the exact charging rules) are
the primary metric: machine independent and deterministic for a fixed
seed.  Wall time rides along as an informational column.  The dense
baselines are charged for the dense computation only, not for
materializing the structured input.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .counting import MultCounter
from .dense import DENSE_GUARD, DenseMatrix, dense_charpoly, dense_minpoly
from .field import PrimeField
from .structured import random_structured
from .wiedemann import charpoly_generic, minpoly

ALGORITHMS = ("minpoly-naive", "minpoly-bsgs", "charpoly-block",
              "dense-charpoly", "dense-minpoly")

CSV_HEADER = "n,alphaT,alphaH,beta,algorithm,field_mults,wall_ns,seed"


@dataclass(frozen=True)
class BenchRecord:
    n: int
    alpha_t: int
    alpha_h: int
    beta: int
    algorithm: str
    field_mults: int
    wall_ns: int
    seed: int
    p: int

    def csv_row(self) -> str:
        return (f"{self.n},{self.alpha_t},{self.alpha_h},{self.beta},"
                f"{self.algorithm},{self.field_mults},{self.wall_ns},{self.seed}")

    def json_record(self) -> dict:
        return {"n": self.n, "alphaT": self.alpha_t, "alphaH": self.alpha_h,
                "beta": self.beta, "algorithm": self.algorithm, "p": self.p,
                "seed": self.seed, "field_mults": self.field_mults,
                "wall_ns": self.wall_ns}


def run_case(field: PrimeField, n: int, alpha_t: int, alpha_h: int, beta: int,
             algorithm: str, seed: int) -> BenchRecord:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm.startswith("dense") and n > DENSE_GUARD:
        raise ValueError(f"dense baselines are guarded at n <= {DENSE_GUARD}")
    A = random_structured(field, n, alpha_t, alpha_h, seed)
    if algorithm.startswith("dense"):
        M = DenseMatrix(field, A.reconstruct())
        counter = MultCounter()
        start = time.perf_counter_ns()
        if algorithm == "dense-charpoly":
            dense_charpoly(M, counter)
        else:
            dense_minpoly(M, counter)
        wall = time.perf_counter_ns() - start
        mults = counter.mults
    elif algorithm == "charpoly-block":
        start = time.perf_counter_ns()
        report = charpoly_generic(A, beta, seed)
        wall = time.perf_counter_ns() - start
        mults = report.field_mult_count
    else:
        mode = algorithm.split("-", 1)[1]
        start = time.perf_counter_ns()
        report = minpoly(A, seed, mode=mode)
        wall = time.perf_counter_ns() - start
        mults = report.field_mult_count
    return BenchRecord(n, alpha_t, alpha_h, beta, algorithm, mults, wall, seed,
                       field.p)


def run_grid(field: PrimeField, sizes, alpha_t: int, alpha_h: int, beta: int,
             algorithms, seeds) -> list[BenchRecord]:
    records = []
    for n in sizes:
        for algorithm in algorithms:
            for seed in seeds:
                records.append(run_case(field, n, alpha_t, alpha_h, beta,
                                        algorithm, seed))
    return records


def to_csv(records) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def to_json(records) -> str:
    """A JSON list of the records, one per line."""
    rows = [json.dumps(r.json_record()) for r in records]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"
