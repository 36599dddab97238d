"""Span tracing around the calls judou's modules make into each layer.

A traced run rebinds the names that `judou.segmenter` and `judou.embedding`
look up at call time, so every call into a layer opens a span: name, start,
end and the index of the span that was open when it started. Spans stay in
memory until the run writes them out. The wrappers only read arguments and
results, so a traced run computes exactly what an untraced one does.
"""

import json
import time
from contextlib import contextmanager

# (module attribute rebound, span name); the span name is the module that
# defines the function, which is the layer the per-layer metrics are named by
HOOKS = {
    "judou.segmenter": (
        ("bilstm_forward_batch", "lstm.bilstm_forward_batch"),
        ("bilstm_backward_batch", "lstm.bilstm_backward_batch"),
        ("crf_nll", "crf.crf_nll"),
        ("viterbi_decode", "crf.viterbi_decode"),
        ("sgd_step", "nncore.sgd_step"),
        ("dropout_mask", "nncore.dropout_mask"),
        ("encode_chars", "embedding.encode_chars"),
        ("normalize_text", "corpus.normalize_text"),
        ("_forward_batch", "segmenter._forward_batch"),
        ("_backward_batch", "segmenter._backward_batch"),
        ("evaluate", "segmenter.evaluate"),
    ),
    "judou.embedding": (
        ("encode_chars", "embedding.encode_chars"),
        ("cbow_loss_and_grads", "embedding.cbow_loss_and_grads"),
    ),
}


def _nbytes(obj, seen) -> int:
    """Bytes of the distinct arrays reachable through tuples, lists and dicts;
    a view counts as the array that owns its memory."""
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o, seen) for o in obj)
    if isinstance(obj, dict):
        return sum(_nbytes(o, seen) for o in obj.values())
    if not hasattr(obj, "nbytes"):
        return 0
    while getattr(obj, "base", None) is not None and hasattr(obj.base, "nbytes"):
        obj = obj.base
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    return int(obj.nbytes)


class Tracer:
    """In-memory span recorder. Each span is [name, start, end, parent, value],
    where value is a number some spans carry (positions, bytes, clip scale)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._cache_bytes = {}

    def wrap(self, name, fn, value_of=None):
        """fn with a span around each call; value_of(args, result) fills the
        span's value once the call has returned."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if value_of is not None:
                rec[4] = value_of(args, result)
            return result

        return traced

    def _value_of(self, span_name):
        if span_name == "lstm.bilstm_forward_batch":
            return self._forward_value
        if span_name == "nncore.sgd_step":
            return lambda args, scale: float(scale)
        return None

    def _forward_value(self, args, result):
        """(positions B*n, bytes of the returned cache); the cache size is a
        function of the input shape, so it is measured once per shape."""
        shape = args[1].shape
        if shape not in self._cache_bytes:
            self._cache_bytes[shape] = _nbytes(result[1], set())
        return (shape[0] * shape[1], self._cache_bytes[shape])

    @contextmanager
    def installed(self, modules):
        """Rebind the hooked names in the given {module name: module} while
        the block runs; the originals are restored on exit."""
        saved = []
        try:
            for mod_name, hooks in HOOKS.items():
                mod = modules[mod_name]
                for attr, span_name in hooks:
                    if not hasattr(mod, attr):
                        continue  # a layer the code no longer calls reads as zero
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(span_name, original, self._value_of(span_name)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                    "parent": parent, "value": value}) + "\n")


class SpanStats:
    """Totals, self times and counts over spans[first:]."""

    def __init__(self, spans, first: int = 0):
        self.total = {}
        self.self_time = {}
        self.calls = {}
        self.under = {}  # (name, parent name) -> (seconds, calls)
        self.values = {}
        window = spans[first:]
        child_time = [0.0] * len(window)
        for name, start, end, parent, value in window:
            if parent >= first:
                child_time[parent - first] += end - start
        for i, (name, start, end, parent, value) in enumerate(window):
            dur = end - start
            self.total[name] = self.total.get(name, 0.0) + dur
            self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            parent_name = spans[parent][0] if parent >= first else None
            s, c = self.under.get((name, parent_name), (0.0, 0))
            self.under[(name, parent_name)] = (s + dur, c + 1)
            if value is not None:
                self.values.setdefault(name, []).append(value)
