"""The benchmark's tracer (bench/tracer.py) wraps seqdiv functions and
methods by name.  A refactor that moves or renames one of them breaks
``bench/run.py --trace 1``; these tests make that a suite failure instead.
Only bench/ is read here, nothing under it is changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _load_tracer()


@pytest.mark.parametrize("layer, module, attr", tracer.FUNCTIONS, ids=str)
def test_wrapped_function_resolves(layer, module, attr):
    fn = getattr(importlib.import_module(f"seqdiv.{module}"), attr, None)
    assert callable(fn), f"{layer}: seqdiv.{module}.{attr} is gone"


@pytest.mark.parametrize("layer, module, cls, names", tracer.METHODS, ids=str)
def test_wrapped_methods_are_defined_on_their_class(layer, module, cls, names):
    klass = getattr(importlib.import_module(f"seqdiv.{module}"), cls)
    for name in names:
        # the tracer reads klass.__dict__[name]; an inherited method is not enough
        assert name in klass.__dict__, f"{layer}: {cls}.{name} is not in the class dict"


def test_cyclotomic_form_keeps_its_cache():
    cyclokit = importlib.import_module("seqdiv.cyclokit")
    assert callable(cyclokit.cyclotomic_form.cache_info)
