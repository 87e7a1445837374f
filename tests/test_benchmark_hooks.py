"""The names the benchmark's per-layer tracer wraps must exist in dfgof.

``perfbench/spans.py`` replaces each function in ``LAYER_FUNCTIONS`` by name
and reads the named argument of each function in ``WORK_COUNTS``; a rename
or deletion in the package would otherwise only surface when the benchmark
is set up.  The module is loaded from its file, as the benchmark loads it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _resolve(qualname: str):
    module_name, func_name = qualname.split(".")
    return getattr(importlib.import_module(f"dfgof.{module_name}"), func_name, None)


@pytest.mark.parametrize("qualname", spans.LAYER_FUNCTIONS)
def test_layer_function_resolves(qualname):
    assert callable(_resolve(qualname)), f"dfgof.{qualname} is not a function"


@pytest.mark.parametrize("qualname", sorted(spans.WORK_COUNTS))
def test_work_count_argument_is_a_parameter(qualname):
    _, argument, _ = spans.WORK_COUNTS[qualname]
    assert argument in inspect.signature(_resolve(qualname)).parameters
