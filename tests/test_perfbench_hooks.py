"""The benchmark's tracer times layers by rebinding names in judou's modules.

It skips a name a module no longer has, and a call that reaches a layer other
than through the rebound name goes untimed; either would silently zero a
per-layer metric. These tests turn both into failures.
"""

import dis
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def load_hooks() -> dict:
    return load_spans().HOOKS


def globals_loaded(module) -> set:
    """Names loaded as globals by the functions and methods defined in module,
    nested functions and comprehensions included."""
    def functions(obj):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for member in vars(obj).values():
                yield from functions(member)

    codes = [f.__code__ for obj in vars(module).values() for f in functions(obj)]
    names = set()
    while codes:
        code = codes.pop()
        names.update(ins.argval for ins in dis.get_instructions(code)
                     if ins.opname == "LOAD_GLOBAL")
        codes.extend(c for c in code.co_consts if inspect.iscode(c))
    return names


HOOKED = [(module_name, attr) for module_name, hooks in load_hooks().items()
          for attr, _ in hooks]


@pytest.mark.parametrize("module_name, attr", HOOKED)
def test_traced_name_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("module_name, attr", HOOKED)
def test_traced_name_is_called_through_the_module_global(module_name, attr):
    assert attr in globals_loaded(importlib.import_module(module_name))


def traced_values(calls) -> dict:
    """Run calls() with the tracer installed; the span values by span name."""
    tracer = load_spans().Tracer()
    modules = {name: importlib.import_module(name) for name in load_hooks()}
    with tracer.installed(modules):
        calls(modules["judou.segmenter"])
    values = {}
    for name, _, _, _, value in tracer.spans:
        values.setdefault(name, []).append(value)
    return values


def test_the_traced_forward_pass_counts_the_input_batch_positions():
    # the tracer reads positions from the second argument's shape
    from judou.lstm import new_bilstm_weights
    weights = new_bilstm_weights(5, 4, np.random.default_rng(0))
    values = traced_values(
        lambda seg: seg.bilstm_forward_batch(weights, np.zeros((2, 3, 5))))
    [(positions, cache_bytes)] = values["lstm.bilstm_forward_batch"]
    assert positions == 6 and cache_bytes > 0


def test_sgd_step_returns_a_float_clip_scale():
    weights, grads = {"w": np.zeros(2)}, {"w": np.array([6.0, 8.0])}
    scales = []
    values = traced_values(lambda seg: scales.append(seg.sgd_step(weights, grads, 0.1, 5.0)))
    assert isinstance(scales[0], float) and scales[0] == 0.5
    assert values["nncore.sgd_step"] == [0.5]
