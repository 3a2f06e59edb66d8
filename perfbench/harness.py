"""Workloads, inputs, oracle check and metrics of the thpoly benchmark.

A run is a single-threaded closed loop: one solve at a time, each on the
next input of a pool made from the workload seed and with a fresh
algorithm seed.  A solve is one call of the public entry point
``wiedemann.minpoly`` or ``wiedemann.charpoly_generic`` and includes the
library's own verification and certificates.  After the timed loop every
result is compared with the dense oracle on the same input.

Solve times are reported relative to fixed reference kernels
(``reference.py``) timed between solves, because the wall time of the same
solve drifts by tens of percent with the load on a shared machine.
"""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from thpoly import formats, wiedemann
from thpoly.dense import DenseMatrix, dense_charpoly, dense_minpoly
from thpoly.errors import NotGenericError
from thpoly.field import PrimeField
from thpoly.poly import Poly
from thpoly.structured import THMatrix, random_structured

import tracer
from reference import KERNELS, NOMINAL_SECONDS, geomean, kernel_seconds

RUN_SCRIPT = Path(__file__).with_name("run.py")

# Distinct matrices per run.  A solve takes seconds at the parent commit,
# so a run of run_seconds uses each input once; once solves get faster the
# loop cycles through the pool (with fresh algorithm seeds) and the oracle
# cost per run stays bounded by POOL dense solves.
POOL = 16
MIN_SOLVES = 3      # a run always takes this many samples, however short
SETUP_REPS = 7      # set-up samples per untraced run ...
SETUP_BATCH = 3     # ... each the mean of this many cold set-ups

END_TO_END = (
    ("solve_rel_p50", "x"),
    ("field_mults", "mults"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    alpha_t: int
    alpha_h: int
    p: int
    mode: str | None = None     # minpoly mode; None calls charpoly_generic
    beta: int = 1
    # reference.KERNELS whose instruction mix the solve spends its time in
    reference: tuple[str, ...] = ("butterflies", "kronecker")

    def solve(self, A: THMatrix, seed: int) -> wiedemann.AnnihilatorReport:
        if self.mode is None:
            return wiedemann.charpoly_generic(A, self.beta, seed)
        return wiedemann.minpoly(A, seed, mode=self.mode)

    def oracle(self, A: THMatrix) -> Poly:
        M = DenseMatrix(A.field, A.reconstruct())
        return dense_charpoly(M) if self.mode is None else dense_minpoly(M)


# Why each workload was chosen: BENCHMARK.json and DESIGN.md.
WORKLOADS = {w.name: w for w in (
    # large int64 NTT batches
    Workload("minpoly-toeplitz", n=256, alpha_t=2, alpha_h=0, p=2013265921,
             mode="bsgs", reference=("butterflies",)),
    # small NTT batches with much interpreter work between them
    Workload("charpoly-th", n=64, alpha_t=2, alpha_h=1, p=2013265921, beta=2),
    # big-integer Kronecker products
    Workload("minpoly-naive-bigp", n=128, alpha_t=2, alpha_h=1, p=(1 << 61) - 1,
             mode="naive", reference=("kronecker",)),
)}


def make_matrix(workload: Workload, field: PrimeField, matrix_seed: int) -> THMatrix:
    """Random input as the library generates it, after an SMX round trip."""
    A = random_structured(field, workload.n, workload.alpha_t,
                          workload.alpha_h, matrix_seed)
    # called through the module so that a traced set-up sees parse_smx
    return formats.parse_smx(formats.dump_smx(A))


def make_pool(workload: Workload, seed: int) -> list[THMatrix]:
    """The run's inputs, a pure function of the workload and its seed.

    Each input is touched by one matvec so that lazily built tables are
    ready before the first timed solve.
    """
    field = PrimeField(workload.p)
    rng = random.Random(f"{workload.name}/{seed}/matrix")
    pool = [make_matrix(workload, field, rng.getrandbits(31)) for _ in range(POOL)]
    for A in pool:
        A.matvec(A.field.unit_vector(A.n, 0))
    return pool


@dataclass
class Outcome:
    """One timed solve; ``report`` is None when the solve raised."""

    index: int                  # position of the input in the pool
    seconds: float
    report: wiedemann.AnnihilatorReport | None
    error: Exception | None = None


def failed(outcome: Outcome, expected: Poly) -> bool:
    """A solve fails if it raised, was not verified, or disagrees with
    the dense oracle."""
    report = outcome.report
    return report is None or not report.verified or report.polynomial != expected


def timed_solve(workload: Workload, A: THMatrix, index: int, seed: int) -> Outcome:
    start = time.perf_counter()
    try:
        report = workload.solve(A, seed)
    except Exception as exc:    # a raising solve is a counted failure
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Outcome(index, seconds, None, exc)
    return Outcome(index, time.perf_counter() - start, report)


def count_failures(outcomes: list[Outcome], pool: list[THMatrix],
                   workload: Workload, expected: dict | None = None) -> int:
    """Failed solves; oracles are computed once per input used, outside
    any timed region, and cached in ``expected``."""
    expected = {} if expected is None else expected
    bad = 0
    for o in outcomes:
        if o.index not in expected:
            expected[o.index] = workload.oracle(pool[o.index])
        bad += failed(o, expected[o.index])
    return bad


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu}


def setup_seconds(workload: Workload, seed: int) -> float:
    """Cold set-up wall time of the named workload: the median of
    SETUP_REPS samples, each the mean of SETUP_BATCH set-ups run back to
    back.

    A set-up is a fresh ``run.py --setup-only`` process, timed from its
    start to its exit: interpreter start, the imports, ``PrimeField``
    construction, generation and SMX round trip of the pool and its
    warm-up.  The batches smooth over a machine that switches between a
    fast and a slow state every few seconds.
    """
    cmd = [sys.executable, str(RUN_SCRIPT), "--workload", workload.name,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    samples = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        for _ in range(SETUP_BATCH):
            # no timeout: with one, the wait polls and rounds up to 50 ms
            subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        samples.append((time.perf_counter() - start) / SETUP_BATCH)
    return statistics.median(samples)


def _algorithm_seeds(workload: Workload, seed: int):
    rng = random.Random(f"{workload.name}/{seed}/algorithm")
    while True:
        yield rng.getrandbits(31)


def run(workload: Workload, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics.

    A solve's time is divided by the workload's reference.  ``setup_s``
    is the set-up wall time rescaled to the nominal machine speed by the
    run's median reference of both kernels: the machine drifts between
    runs by more than the bound of ``setup_s``, and the set-up, which is
    interpreter work like neither kernel alone, drifts with it.
    """
    setup_wall_s = setup_seconds(workload, seed)
    pool = make_pool(workload, seed)
    seeds = _algorithm_seeds(workload, seed)
    outcomes = []
    kernels = [kernel_seconds()]    # kernels[k], kernels[k + 1] bracket solve k
    deadline = time.perf_counter() + seconds
    while len(outcomes) < MIN_SOLVES or time.perf_counter() < deadline:
        i = len(outcomes) % POOL
        outcomes.append(timed_solve(workload, pool[i], i, next(seeds)))
        kernels.append(kernel_seconds())
    bad = count_failures(outcomes, pool, workload)
    counts = [o.report.field_mult_count for o in outcomes if o.report is not None]
    refs = [geomean(t, workload.reference) for t in kernels]
    setup_ref = statistics.median(geomean(t, KERNELS) for t in kernels)
    metrics = {
        "solve_rel_p50": statistics.median(
            2 * o.seconds / (refs[k] + refs[k + 1]) for k, o in enumerate(outcomes)),
        "field_mults": statistics.fmean(counts) if counts else 0.0,
        "setup_s": setup_wall_s * geomean(NOMINAL_SECONDS, KERNELS) / setup_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {"attempted": len(outcomes), "failed": bad, "metrics": metrics,
            "samples": len(outcomes), "inputs": min(len(outcomes), POOL),
            "solve_s_p50": statistics.median(o.seconds for o in outcomes),
            "reference_s_p50": statistics.median(refs),
            "setup_wall_s": setup_wall_s}


def run_traced(workload: Workload, seed: int, seconds: float,
               span_path=None) -> dict:
    """Traced run: the per-layer metrics.

    Every input is solved twice with the same algorithm seed, once traced
    and once not, in alternating order.  The pair must agree on the
    polynomial and the mult count, and the traced solve's top-level spans
    must account for every mult it reports; a pair that breaks either
    counts as failed.  The tracing overhead is the difference of the two
    medians.
    """
    t = tracer.Tracer()
    with t.active():
        pool = make_pool(workload, seed)
    seeds = _algorithm_seeds(workload, seed)
    plain, traced, broken = [], [], 0
    not_generic = 0
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SOLVES or time.perf_counter() < deadline:
        k = len(traced)
        i = k % POOL
        s = next(seeds)
        for tracing in ((True, False) if k % 2 else (False, True)):
            if tracing:
                with t.active(), t.solve(k) as root:
                    traced.append(timed_solve(workload, pool[i], i, s))
            else:
                plain.append(timed_solve(workload, pool[i], i, s))
        a, b = plain[-1].report, traced[-1].report
        not_generic += isinstance(traced[-1].error, NotGenericError)
        if a is None or b is None:
            continue            # counted below as an oracle failure
        if (a.polynomial != b.polynomial or a.field_mult_count != b.field_mult_count
                or t.top_level_mults(root) != b.field_mult_count):
            broken += 1
    expected = {}
    bad = (count_failures(plain, pool, workload, expected)
           + count_failures(traced, pool, workload, expected) + broken)
    layers = tracer.aggregate(t.spans, len(traced))
    layers["wiedemann.not_generic"] = not_generic / len(traced)
    layers["trace.solve_s_p50"] = statistics.median(o.seconds for o in traced)
    layers["trace.overhead_s"] = (layers["trace.solve_s_p50"]
                                  - statistics.median(o.seconds for o in plain))
    if span_path is not None:
        t.write_spans(span_path)
    return {"attempted": len(plain) + len(traced), "failed": bad,
            "metrics": {m: layers.get(m, 0) for m, _ in tracer.LAYER_METRICS},
            "samples": len(traced), "inputs": min(len(traced), POOL)}
