"""The benchmark's tracer times layers by rebinding names in judou's modules.

It skips a name a module no longer has, so a rename would silently zero a
per-layer metric; this test turns that into a failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_hooks() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.HOOKS


@pytest.mark.parametrize("module_name, attr", [
    (module_name, attr)
    for module_name, hooks in load_hooks().items()
    for attr, _ in hooks
])
def test_traced_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))
