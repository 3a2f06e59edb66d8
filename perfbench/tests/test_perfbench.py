"""Tests of the benchmark itself: oracle check, tracer consistency,
fixed-seed mult counts and the contract of BENCHMARK.json.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys

import pytest

import harness
import reference
import run
import thpoly.linalg
import thpoly.structured
import thpoly.wiedemann
import tracer
from thpoly.bench import run_case
from thpoly.field import PrimeField
from thpoly.poly import Poly

# Small versions of the workloads: same call paths, fast solves.
SMALL = {
    "minpoly-toeplitz": 32,
    "charpoly-th": 16,
    "minpoly-naive-bigp": 16,
}


def small(name):
    return dataclasses.replace(harness.WORKLOADS[name], n=SMALL[name])


def test_oracle_flags_a_wrong_polynomial():
    w = small("minpoly-toeplitz")
    pool = harness.make_pool(w, seed=5)
    right = harness.timed_solve(w, pool[0], 0, seed=9)
    f = right.report.polynomial
    wrong_poly = Poly(f.field, [(f.coeff(0) + 1) % f.field.p] + f.to_list()[1:])
    wrong = dataclasses.replace(
        right, report=dataclasses.replace(right.report, polynomial=wrong_poly))
    unverified = dataclasses.replace(
        right, report=dataclasses.replace(right.report, verified=False))
    raised = harness.Outcome(0, 0.0, None, ValueError("boom"))
    assert harness.count_failures([right], pool, w) == 0
    assert harness.count_failures([right, wrong], pool, w) == 1
    assert harness.count_failures([unverified, raised], pool, w) == 2


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_solve_matches_untraced(name):
    w = small(name)
    A = harness.make_pool(w, seed=3)[0]
    plain = w.solve(A, 11)
    t = tracer.Tracer()
    with t.active(), t.solve(0) as root:
        traced = w.solve(A, 11)
    assert traced.polynomial == plain.polynomial
    assert traced.field_mult_count == plain.field_mult_count
    assert t.top_level_mults(root) == traced.field_mult_count
    assert len(t.spans) > 1


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    det = thpoly.linalg.det
    rank_factor = thpoly.linalg.rank_factor
    with tracer.Tracer().active():
        assert thpoly.wiedemann.dense_det is not det
        assert thpoly.wiedemann.dense_det is thpoly.linalg.det
        assert thpoly.structured.rank_factor is thpoly.linalg.rank_factor
        assert thpoly.structured.rank_factor is not rank_factor
    assert thpoly.wiedemann.dense_det is det
    assert thpoly.structured.rank_factor is rank_factor
    assert not hasattr(thpoly.structured.THMatrix.power, "__wrapped__")


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_structure(name, tmp_path):
    spans = tmp_path / "spans.tsv"
    result = harness.run_traced(small(name), seed=2, seconds=0, span_path=spans)
    m = result["metrics"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * harness.MIN_SOLVES
    assert list(m) == [n for n, _ in tracer.LAYER_METRICS]
    assert m["formats.parse_smx.s"] > 0
    assert m["wiedemann.verify_annihilates.calls"] == 1
    if name != "charpoly-th":
        assert m["structured.flip_conjugate.calls"] == 0
    else:
        assert m["structured.flip_conjugate.calls"] > 0
        assert m["linalg.det.s"] > 0
    if name == "minpoly-naive-bigp":
        assert m["structured.power.calls"] == 0
        assert m["field.ntt_many.calls"] == 0
    else:
        assert m["structured.power.calls"] == 1
    assert spans.read_text().count("\n") > len(m)


def test_untraced_run_metrics():
    result = harness.run(small("charpoly-th"), seed=4, seconds=0)
    m = result["metrics"]
    assert list(m) == [n for n, _ in harness.END_TO_END]
    assert result["failed"] == 0 and result["attempted"] == harness.MIN_SOLVES
    assert all(v > 0 for v in m.values())


def test_aggregate_self_time_and_nesting():
    def span(name, parent, start, end, solve=0, mults=None):
        s = tracer.Span(name, parent, solve)
        s.start, s.end, s.mults = start, end, mults
        return s

    spans = [
        span("solve", -1, 0, 100),
        span("structured.flip_conjugate", 0, 10, 60, mults=7),
        span("linalg.independent_rows", 1, 20, 30),
        span("linalg.independent_rows", 0, 70, 80),
        span("formats.parse_smx", -1, 200, 230, solve=None),
        span("linalg.independent_rows", 4, 210, 220, solve=None),
    ]
    m = tracer.aggregate(spans, solves=2)
    assert m["structured.flip_conjugate.calls"] == 0.5
    assert m["structured.flip_conjugate.s"] == pytest.approx(25e-9)
    assert m["structured.flip_conjugate.mults"] == 3.5
    assert m["structured.flip_conjugate.self_s"] == pytest.approx(20e-9)
    assert m["linalg.independent_rows.s"] == pytest.approx(10e-9)
    assert m["structured.flip_conjugate.attempts"] == 0.5
    assert m["solve.self_s"] == pytest.approx(20e-9)
    assert m["linalg.independent_rows.calls"] == 1.0     # set-up not counted
    assert m["formats.parse_smx.s"] == pytest.approx(30e-9)
    assert "formats.parse_smx.calls" not in m


def test_reference_kernel_does_the_work_it_claims():
    assert reference._kronecker([1, 2, 3]) == [1, 4, 10, 12, 9]
    x = reference._BATCH
    y = reference._butterflies(x)
    assert y.shape == x.shape and (y >= 0).all() and (y < reference._P_SMALL).all()
    times = reference.kernel_seconds()
    for w in harness.WORKLOADS.values():
        assert reference.geomean(times, w.reference) > 0


# Field mults at matrix seed 1 and algorithm seed 1, measured when the
# benchmark was defined; they are a pure function of inputs and seeds.
ANCHORS = (
    ("minpoly-toeplitz", "minpoly-bsgs", 114_970_315),
    ("charpoly-th", "charpoly-block", 111_515_785),
    ("minpoly-naive-bigp", "minpoly-naive", 50_609_283),
)


@pytest.mark.parametrize("name,algorithm,mults", ANCHORS)
def test_fixed_seed_mult_counts(name, algorithm, mults):
    w = harness.WORKLOADS[name]
    field = PrimeField(w.p)
    record = run_case(field, w.n, w.alpha_t, w.alpha_h, w.beta, algorithm, 1)
    assert record.field_mults == mults
    assert w.solve(harness.make_matrix(w, field, 1), 1).field_mult_count == mults


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    path = list(sys.path)
    assert not run.use_checkout_sources()
    assert sys.path == path
    args = ["--workload", "charpoly-th", "--seed", "1", "--seconds", "1"]
    assert run.main(args) != 0
    assert capsys.readouterr().out == ""
