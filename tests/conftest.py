"""Shared fixtures plus the acceptance-criteria summary printed after the run."""

import numpy as np
import pytest

from judou import lstm
from judou.corpus import LabeledSequence, Unit, build_vocab
from judou.radicals import default_table
from judou.segmenter import build_model
from judou.synthetic import random_embeddings

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def criterion():
    """Record one pass/fail line per acceptance criterion, then assert."""

    def record(name: str, ok: bool, detail: str = ""):
        line = f"{'PASS' if ok else 'FAIL'}: {name}" + (f" [{detail}]" if detail else "")
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return record


@pytest.fixture
def both_paths(monkeypatch):
    """Runs a test body on both BiLSTM paths, as `for path in both_paths():`.
    The first pass sets lstm.PARALLEL_MIN_ROWS to 1, so every batch runs its
    two directions in two threads; the second sets it above every test batch,
    so every batch runs them one after the other."""

    def paths():
        for path, rows in (("threaded", 1), ("serial", 10 ** 9)):
            monkeypatch.setattr(lstm, "PARALLEL_MIN_ROWS", rows)
            yield path

    return paths


@pytest.fixture(scope="session")
def table():
    return default_table()


@pytest.fixture
def make_model(table):
    """Tiny model over the characters of the given units (plus UNK for the rest)."""

    def build(units, d_char=4, d_radical=3, hidden=3, seed=0, use_radicals=True):
        vocab = build_vocab(units)
        emb = random_embeddings(vocab, table, d_char=d_char, d_radical=d_radical, seed=seed)
        return build_model(emb, hidden=hidden, seed=seed, use_radicals=use_radicals)

    return build


def unit_of(chars: str, tags: str) -> Unit:
    return Unit(seq=LabeledSequence(chars, tags))


@pytest.fixture
def force_transitions():
    """Overwrite CRF transitions so only the given tag bigrams are viable.

    arcs are (prev, next) pairs over tag indices plus START=3/STOP=4. The
    allowed arcs get score 0, everything else -1e6, which swamps any emission
    contribution from a small random model and makes decoding deterministic.
    """

    def apply(model, arcs):
        a = model.weights["crf.trans"]
        a[:] = -1e6
        for prev, nxt in arcs:
            a[prev, nxt] = 0.0

    return apply
