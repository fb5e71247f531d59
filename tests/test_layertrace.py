"""The benchmark's per-layer tracer names functions that exist."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _traced():
    spec = importlib.util.spec_from_file_location("layertrace_under_test", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_is_a_callable_in_gag():
    traced = _traced()
    assert traced
    for module, attr, label in traced:
        assert module == "gag" or module.startswith("gag."), module
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
