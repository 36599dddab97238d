"""One round of each benchmark phase, through the calls the benchmark makes.

The benchmark in perfbench/ drives judou through its public API: keywords
of `train_embeddings`, `synthetic.random_embeddings`, the characters
`segment` keeps. A change that breaks one of those fails here, not first in
a benchmark run. Losses are only checked for being finite: their bits
depend on the host's BLAS.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def phases(monkeypatch):
    # phases.py imports inputs.py as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("phases", "inputs"):
        monkeypatch.delitem(sys.modules, name, raising=False)  # dropped again at teardown
    return importlib.import_module("phases")


def test_a_round_of_each_phase_passes_its_checks(phases, tmp_path):
    data = phases.prepare(1, tmp_path)
    api = phases.Api()
    for name, cls in phases.PHASES.items():
        phase = cls(data)
        phase.setup(api)
        phase.round(api)
        assert phase.attempted >= 1, name
        assert phase.failed == 0, name
        assert all(math.isfinite(loss) for loss in phase.losses), (name, phase.losses)
    assert set(phases.PHASES) == {"train", "segment", "pretrain"}
