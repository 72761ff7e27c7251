"""The benchmark's traced pass (`perfbench/run.py --trace 1`) swaps zeipel
functions and methods for timing wrappers by name.  Importing its tracer is
enough to see that every name it swaps still exists."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wrapped_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for span, (module, names) in tracer.FUNCTIONS.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{span}: {module.__name__}.{name} is gone"
    for span, (cls, names) in tracer.METHODS.items():
        for name in names:
            # the tracer rebinds the class's own attribute, so look there
            assert callable(cls.__dict__.get(name)), f"{span}: {cls.__qualname__}.{name} is gone"
