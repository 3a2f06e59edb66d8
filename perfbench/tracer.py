"""Layer tracing from outside the library.

The tracer wraps the thpoly functions named in ``LAYERS`` while it is
active and records one span per call: name, start, end, parent span,
solve id, the change of the ``counter`` argument's ``.mults`` (when the
call received a counter) and an optional per-call quantity.  Module-level
functions are rebound in every loaded ``thpoly`` module that holds them,
because several modules import them by name (``wiedemann`` holds
``linalg.det`` as ``dense_det``); methods are patched on their class.
Leaving the ``active`` block restores every original binding, so solves
outside it run the unmodified library.

Spans stay in memory; ``aggregate`` turns them into the per-layer metrics
and ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import thpoly.field
import thpoly.formats
import thpoly.linalg
import thpoly.poly
import thpoly.structured
import thpoly.wiedemann
from thpoly.field import PrimeField
from thpoly.structured import THMatrix

ROOT = "solve"          # span the harness opens around each timed solve


@dataclass(frozen=True)
class Layer:
    """One wrapped function.  ``quantities`` maps (args, kwargs, result) of
    a successful call to extra metric values; they are summed per solve,
    or averaged over calls when ``mean`` is set."""

    name: str
    owner: object           # module (function) or class (method)
    attr: str
    quantities: Callable | None = None
    mean: bool = False


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _plan(args, kwargs, out):
    plan = _arg(args, kwargs, 3, "plan")
    return {"wiedemann.plan.s": plan.s, "wiedemann.plan.L": plan.L}


LAYERS = (
    Layer("field.ntt_many", PrimeField, "ntt_many",
          lambda a, k, out: {"field.ntt_many.rows": _arg(a, k, 1, "a").shape[0]}),
    Layer("field.conv", PrimeField, "conv"),
    Layer("field.matmul", PrimeField, "matmul"),
    Layer("linalg.rank_factor", thpoly.linalg, "rank_factor"),
    # wrapped only to count the sampling attempts inside flip_conjugate
    Layer("linalg.independent_rows", thpoly.linalg, "independent_rows"),
    Layer("linalg.det", thpoly.linalg, "det"),
    Layer("structured.power", THMatrix, "power",
          lambda a, k, out: {"structured.power.out_width": out.alpha},
          mean=True),
    Layer("structured.core_multiply", thpoly.structured, "core_multiply"),
    Layer("structured.flip_conjugate", thpoly.structured, "flip_conjugate"),
    Layer("structured.compress_pair", thpoly.structured, "compress_pair",
          lambda a, k, out: {
              "structured.compress_pair.width_in": _arg(a, k, 1, "G").shape[1],
              "structured.compress_pair.width_out": out[0].shape[1]},
          mean=True),
    Layer("structured.matvec_block", THMatrix, "matvec_block"),
    Layer("structured.matvec_t_block", THMatrix, "matvec_t_block"),
    Layer("structured.matvec", THMatrix, "matvec"),
    Layer("structured.trace", THMatrix, "trace"),
    Layer("wiedemann.bsgs_sequence", thpoly.wiedemann, "bsgs_sequence",
          _plan, mean=True),
    Layer("wiedemann.krylov_sequence_naive", thpoly.wiedemann,
          "krylov_sequence_naive"),
    Layer("wiedemann.verify_annihilates", thpoly.wiedemann,
          "verify_annihilates",
          lambda a, k, out: {"wiedemann.verify_annihilates.rejects": int(not out)}),
    Layer("wiedemann.minimal_matrix_generator", thpoly.wiedemann,
          "minimal_matrix_generator"),
    Layer("wiedemann.polymat_det", thpoly.wiedemann, "polymat_det"),
    Layer("poly.berlekamp_massey", thpoly.poly, "berlekamp_massey"),
    Layer("poly.interpolate", thpoly.poly, "interpolate"),
    Layer("formats.parse_smx", thpoly.formats, "parse_smx"),
)
MEAN_QUANTITIES = {layer.name for layer in LAYERS if layer.mean}

# Metrics of the set-up rather than of a solve.
SETUP_METRICS = {"formats.parse_smx.s"}

# Per-layer metrics reported by a traced run, in output order, with units.
# Counts and times are per solve, except formats.parse_smx.s, which is per
# set-up (one generation and SMX round trip of every input).  Widths and
# plan values are means over the calls that produced them.
LAYER_METRICS = (
    ("field.ntt_many.calls", "count"),
    ("field.ntt_many.self_s", "s"),
    ("field.ntt_many.rows", "rows"),
    ("field.conv.calls", "count"),
    ("field.conv.self_s", "s"),
    ("field.matmul.calls", "count"),
    ("field.matmul.self_s", "s"),
    ("linalg.rank_factor.calls", "count"),
    ("linalg.rank_factor.self_s", "s"),
    ("linalg.det.s", "s"),
    ("structured.power.calls", "count"),
    ("structured.power.s", "s"),
    ("structured.power.mults", "mults"),
    ("structured.power.out_width", "columns"),
    ("structured.core_multiply.calls", "count"),
    ("structured.core_multiply.s", "s"),
    ("structured.core_multiply.self_s", "s"),
    ("structured.core_multiply.mults", "mults"),
    ("structured.flip_conjugate.calls", "count"),
    ("structured.flip_conjugate.s", "s"),
    ("structured.flip_conjugate.mults", "mults"),
    ("structured.flip_conjugate.attempts", "count"),
    ("structured.compress_pair.calls", "count"),
    ("structured.compress_pair.s", "s"),
    ("structured.compress_pair.width_in", "columns"),
    ("structured.compress_pair.width_out", "columns"),
    ("structured.matvec_block.s", "s"),
    ("structured.matvec_t_block.s", "s"),
    ("structured.matvec.calls", "count"),
    ("structured.matvec.s", "s"),
    ("structured.trace.s", "s"),
    ("wiedemann.bsgs_sequence.s", "s"),
    ("wiedemann.bsgs_sequence.self_s", "s"),
    ("wiedemann.krylov_sequence_naive.s", "s"),
    ("wiedemann.plan.s", "count"),
    ("wiedemann.plan.L", "count"),
    ("wiedemann.verify_annihilates.calls", "count"),
    ("wiedemann.verify_annihilates.s", "s"),
    ("wiedemann.verify_annihilates.mults", "mults"),
    ("wiedemann.verify_annihilates.rejects", "count"),
    ("wiedemann.minimal_matrix_generator.s", "s"),
    ("wiedemann.minimal_matrix_generator.mults", "mults"),
    ("wiedemann.polymat_det.s", "s"),
    ("wiedemann.polymat_det.mults", "mults"),
    ("wiedemann.not_generic", "count"),
    ("poly.berlekamp_massey.s", "s"),
    ("poly.berlekamp_massey.mults", "mults"),
    ("poly.interpolate.s", "s"),
    ("formats.parse_smx.s", "s"),
    ("trace.solve_s_p50", "s"),
    ("trace.overhead_s", "s"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "mults",
                 "quantities")

    def __init__(self, name: str, parent: int, solve: int | None):
        self.name = name
        self.parent = parent        # index of the enclosing span, -1 if none
        self.solve = solve
        self.start = self.end = 0
        self.mults = None
        self.quantities = None


def _holders(layer: Layer, fn) -> list:
    if isinstance(layer.owner, type):
        return [layer.owner]
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "thpoly" or key.startswith("thpoly."))
            and any(value is fn for value in vars(m).values())]


def _counter_position(fn) -> int | None:
    names = list(inspect.signature(fn).parameters)
    return names.index("counter") if "counter" in names else None


class Tracer:
    """Records spans for the calls made inside ``active`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solve = None

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self._solve)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def solve(self, solve_id: int):
        """Root span of one solve; yields its index.  Spans opened inside
        carry ``solve_id``."""
        self._solve = solve_id
        index = len(self.spans)
        span = self._open(ROOT)
        try:
            yield index
        finally:
            self._close(span)
            self._solve = None

    def _wrap(self, layer: Layer, fn):
        pos = _counter_position(fn)
        quantities = layer.quantities
        name = layer.name

        def traced(*args, **kwargs):
            counter = None
            if pos is not None:
                counter = args[pos] if len(args) > pos else kwargs.get("counter")
            before = counter.mults if counter is not None else 0
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.mults = counter.mults - before
            if quantities is not None:
                span.quantities = quantities(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        undo = []
        try:
            for layer in LAYERS:
                fn = getattr(layer.owner, layer.attr)
                wrapped = self._wrap(layer, fn)
                for holder in _holders(layer, fn):
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            undo.append((holder, attr, fn))
                            setattr(holder, attr, wrapped)
            yield self
        finally:
            for holder, attr, fn in reversed(undo):
                setattr(holder, attr, fn)

    def top_level_mults(self, root: int) -> int:
        """Sum of the mults of the spans directly under span ``root``."""
        return sum(s.mults or 0 for s in self.spans[root + 1:]
                   if s.parent == root)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id\tparent\tsolve\tname\tstart_ns\tend_ns\tmults\n")
            for i, s in enumerate(self.spans):
                solve = "" if s.solve is None else s.solve
                mults = "" if s.mults is None else s.mults
                fh.write(f"{i}\t{s.parent}\t{solve}\t{s.name}\t{s.start}\t"
                         f"{s.end}\t{mults}\n")


def _inside(spans: list[Span], span: Span, name: str) -> bool:
    """Whether some ancestor of ``span`` is named ``name``."""
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def aggregate(spans: list[Span], solves: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``solves`` traced solves and one
    set-up, keyed by metric name (only names with data).

    Spans inside a solve make the per-solve metrics and spans outside one
    the per-set-up metrics in ``SETUP_METRICS``, so the warm-up of the
    set-up does not count as solve work.  Self time is a span's duration
    minus that of its direct children, which never overlap because every
    call is synchronous.
    """
    child_ns = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_ns[s.parent] += s.end - s.start
    sums = ({}, {})                 # in solves, in the set-up
    gauges: dict[str, list] = {}
    for i, s in enumerate(spans):
        total = sums[s.solve is None]
        dur = s.end - s.start
        values = [(f"{s.name}.calls", 1),
                  (f"{s.name}.s", dur * 1e-9),
                  (f"{s.name}.self_s", (dur - child_ns[i]) * 1e-9)]
        if s.mults is not None:
            values.append((f"{s.name}.mults", s.mults))
        if (s.name == "linalg.independent_rows"
                and _inside(spans, s, "structured.flip_conjugate")):
            values.append(("structured.flip_conjugate.attempts", 1))
        for key, value in (s.quantities or {}).items():
            if s.name not in MEAN_QUANTITIES:
                values.append((key, value))
            elif s.solve is not None:
                gauges.setdefault(key, []).append(value)
        for key, value in values:
            total[key] = total.get(key, 0) + value
    in_solves, in_setup = sums
    out = {key: value / solves for key, value in in_solves.items()
           if key not in SETUP_METRICS}
    out.update((key, in_setup[key]) for key in SETUP_METRICS if key in in_setup)
    out.update((key, sum(v) / len(v)) for key, v in gauges.items())
    return out
