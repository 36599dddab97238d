"""The benchmark builds its corpus and documents with judou's text rules, so a
change to those rules would move `train_loss` between two benchmark runs
without failing any other test. These digests pin the inputs of seed 1."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from judou.radicals import default_table

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


def load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def inputs():
    return load_inputs()


def test_corpus_units_are_pinned(inputs):
    splits = inputs.make_corpus(1, default_table()).splits
    units = splits.train + splits.valid + splits.test
    assert len(units) == 100
    assert digest(u.seq.chars for u in units) == \
        "b962c50a73de73b2f3927f42d4f1f3e349d1a151658a1916d866bf90fee0f3f9"
    assert digest(u.seq.tags for u in units) == \
        "4347e282f9043579c78d93e02b9cdac5e892f93122010fcd51907ac3153b443f"


def test_segment_documents_are_pinned(inputs):
    assert digest(inputs.make_documents(1, default_table())) == \
        "bcd80374b9858fe31c7c1891b23333b490c6506bfef2eef81aa076255edaa232"
