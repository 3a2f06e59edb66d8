"""The library names that perfbench/tracer.py wraps must keep existing.

The tracer binds its layers by name (owner, attribute) and reads the
``counter`` argument and some positional arguments of the wrapped calls,
so deleting or renaming one of them, or dropping its ``counter``
parameter, breaks ``perfbench/run.py --trace 1``.  These tests load the
tracer as it stands and check every binding against the library.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# layers whose wrapped function takes a `counter` argument
WITH_COUNTER = {
    "field.conv", "field.matmul", "linalg.rank_factor",
    "linalg.independent_rows", "linalg.det", "structured.power",
    "structured.core_multiply", "structured.flip_conjugate",
    "structured.compress_pair", "structured.matvec_block",
    "structured.matvec_t_block", "structured.matvec", "structured.trace",
    "wiedemann.bsgs_sequence", "wiedemann.krylov_sequence_naive",
    "wiedemann.verify_annihilates", "wiedemann.minimal_matrix_generator",
    "wiedemann.polymat_det", "poly.berlekamp_massey", "poly.interpolate",
}

# positional arguments the tracer's per-call quantities read, by position
# in the signature (methods count `self`)
READ_ARGS = {
    "field.ntt_many": (1, "a"),
    "wiedemann.bsgs_sequence": (3, "plan"),
    "structured.compress_pair": (1, "G"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


LAYERS = load_tracer().LAYERS


@pytest.mark.parametrize("layer", LAYERS, ids=lambda layer: layer.name)
def test_traced_name_resolves(layer):
    fn = getattr(layer.owner, layer.attr, None)
    assert callable(fn), f"{layer.name}: {layer.attr} is gone"
    params = list(inspect.signature(fn).parameters)
    if layer.name in WITH_COUNTER:
        assert "counter" in params, f"{layer.name} lost its counter"
    if layer.name in READ_ARGS:
        pos, name = READ_ARGS[layer.name]
        assert params[pos] == name, f"{layer.name}: argument {pos} is not {name}"


def test_every_pinned_layer_is_traced():
    names = {layer.name for layer in LAYERS}
    assert WITH_COUNTER <= names and set(READ_ARGS) <= names
