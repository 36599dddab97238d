"""Tests of the benchmark itself: deterministic inputs, tracing that leaves
numerics alone, output checks that hold, and the command's contract.

    python3 -m pytest -q perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import judou.embedding  # noqa: E402
import judou.segmenter  # noqa: E402
import inputs  # noqa: E402
import phases  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from judou.radicals import default_table  # noqa: E402
from spans import HOOKS, SpanStats, Tracer  # noqa: E402

MODULES = {"judou.segmenter": judou.segmenter, "judou.embedding": judou.embedding}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return phases.prepare(7, tmp_path_factory.mktemp("bench"))


def _units(corpus):
    s = corpus.splits
    return [[(u.seq.chars, u.seq.tags) for u in part] for part in (s.train, s.valid, s.test)]


def test_inputs_are_deterministic_per_seed():
    table = default_table()
    a, b, c = (inputs.make_corpus(s, table) for s in (3, 3, 4))
    assert _units(a) == _units(b)
    assert a.vocab.index_to_char == b.vocab.index_to_char
    assert _units(a) != _units(c)
    assert inputs.make_documents(3, table) == inputs.make_documents(3, table)
    assert inputs.make_documents(3, table) != inputs.make_documents(4, table)


def test_input_properties(data):
    props = inputs.input_properties(data.corpus, data.docs)
    assert 2500 <= props["vocab_size"] <= 3500
    assert props["units"]["train"] >= 2 * props["units"]["test"] - 2
    assert props["segment_doc_chars_p50"] < inputs.UNIT_SIZE
    assert 0.05 < props["segment_share_longer_than_unit"] < 0.3


def _round_pair(phase):
    """One untraced and one traced round of a phase; returns the tracer's stats."""
    tracer = Tracer()
    phase.setup(phases.Api())
    phase.round(phases.Api())
    with tracer.installed(MODULES):
        phase.round(phases.Api(tracer))
    return SpanStats(tracer.spans)


@pytest.mark.parametrize("name", ["train", "pretrain"])
def test_tracing_leaves_losses_bit_identical(data, name):
    phase = phases.PHASES[name](data)
    stats = _round_pair(phase)
    assert phase.failed == 0
    assert len(phase.losses) == 2 and math.isfinite(phase.losses[0])
    assert phase.losses[0] == phase.losses[1]
    layers = run.layer_metrics(stats)
    if name == "train":
        assert layers["crf.nll_calls"] == len(data.corpus.splits.train)
        assert layers["segmenter.evaluate_calls"] == phases.HP.epochs
        assert layers["lstm.backward_s"] > 0 and layers["nncore.sgd_calls"] > 0
    else:
        assert layers["embedding.cbow_calls"] == phase.positions
        assert layers["lstm.forward_calls"] == 0


def test_tracing_restores_the_modules(data):
    before = {(m, a): getattr(MODULES[m], a) for m, hooks in HOOKS.items() for a, _ in hooks}
    with Tracer().installed(MODULES):
        assert judou.segmenter.crf_nll is not before[("judou.segmenter", "crf_nll")]
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in before.items())


def test_segment_checks_pass_and_drops_are_counted(data):
    phase = phases.SegmentPhase(data)
    stats = _round_pair(phase)
    assert phase.failed == 0
    assert phase.attempted == 2 * len(data.docs)
    # the inputs carry non-Han text, so the drop (ROADMAP defect 4c) shows
    assert phase.dropped_chars > 0
    layers = run.layer_metrics(stats)
    assert layers["crf.nll_calls"] == 0 and layers["lstm.backward_s"] == 0
    assert layers["crf.viterbi_calls"] == layers["lstm.forward_calls"] > len(data.docs)


def test_a_failed_check_is_a_failed_operation(data):
    phase = phases.TrainPhase(data)
    phase.gold_boundaries += 1
    phase.setup(phases.Api())
    phase.round(phases.Api())
    assert phase.failed == phases.EVAL_REPEATS  # one failed check per evaluate() call


def test_benchmark_json_matches_the_command():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pretrain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_kernel_leaves_numerics_alone(data):
    plain, sampled = phases.PretrainPhase(data), phases.PretrainPhase(data)
    sampled.reference = reference.Reference()
    for phase in (plain, sampled):
        phase.setup(phases.Api())
        phase.round(phases.Api())
    assert sampled.failed == plain.failed == 0
    assert sampled.losses == plain.losses
    # one kernel sample per STRIDE_S of the timed call
    assert len(sampled.reference.samples) == max(1, round(sampled.times[0] / reference.STRIDE_S))
    assert sampled.reference.slowdown() > 0
