"""The differential gate on the decode path: `segment` and `evaluate` against
oracles that decode every unit alone (B = 1) with the full-scale BiLSTM step
in float32, the float32 emission and `stepwise_viterbi`, and that share no
batching, grouping or encoding code with the shipped decoder.

A batched pass may round its float32 products differently from a one-row
pass, so where the oracle's emissions hold two paths within a tolerance of
the best, the shipped path need only be one of them."""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from judou.corpus import DEFAULT_STOPS, UNSURE_CHAR, LabeledSequence, Unit, build_vocab
from judou.nncore import make_rng
from judou.segmenter import build_model, evaluate, segment
from judou.synthetic import random_embeddings

from oracles import (max_marginals, oracle_counts, oracle_emissions, oracle_segment,
                     oracle_units, random_crf)

HAN = "天地人山水火也矣乎"
ASTRAL_HAN = "\U00020000\U00020BB7\U0002A6A5"
TEXT_CHARS = HAN + ASTRAL_HAN + UNSURE_CHAR + "".join(sorted(DEFAULT_STOPS)) + "ab Z1"
# above about 3 the float32 recurrence of these tiny models amplifies a
# rounding difference into emissions that differ in their first digits
SCALES = (0.0, 0.01, 0.3, 1.0, 3.0)


def tolerance(P) -> float:
    """How far a path's score may move when a batched pass rounds the float32
    products of one unit's emissions P (1, n, 3) differently: 0 when every
    emission is 0, as nothing then rounds."""
    return 1e-4 * P.shape[1] * float(np.abs(P).max())


def near_tie(P, A) -> bool:
    """Whether some position of the unit has two tags on paths within
    tolerance(P) of the best."""
    m = max_marginals(P[0], A)
    tol = tolerance(P)
    return tol > 0 and bool(((m >= m.max() - tol).sum(axis=1) > 1).any())


def assert_a_path_within_tolerance(model, out):
    """Every unit of out has a tag path within tolerance of the oracle's best
    whose E tags are its separators; the stream's last tag may be anything."""
    chars = out.replace("/", "")
    ends = np.zeros(len(chars), bool)
    ends[[i - k - 1 for k, i in enumerate(j for j, c in enumerate(out) if c == "/")]] = True
    start = 0
    for unit in oracle_units(chars):
        P = oracle_emissions(model, unit)
        A = model.weights["crf.trans"]
        cut = ends[start:start + len(unit)]
        mask = np.where(np.stack([cut, ~cut, cut], axis=1), -np.inf, 0.0)
        if start + len(unit) == len(chars):
            mask[-1] = 0.0
        best = max_marginals(P[0], A).max()
        assert tolerance(P) > 0 and max_marginals(P[0] + mask, A).max() >= best - tolerance(P)
        start += len(unit)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dims=st.tuples(*[st.integers(1, 4)] * 3), scale=st.sampled_from(SCALES),
       use_radicals=st.booleans(), known=st.text(st.sampled_from(HAN + ASTRAL_HAN + UNSURE_CHAR)),
       text=st.integers(0, 400).flatmap(lambda n: st.text(st.sampled_from(TEXT_CHARS),
                                                          min_size=n, max_size=n)),
       lengths=st.lists(st.integers(1, 100), min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_segment_and_evaluate_match_the_one_unit_oracle(table, dims, scale, use_radicals, known,
                                                        text, lengths, seed):
    d_char, d_radical, hidden = dims
    vocab = build_vocab([Unit(LabeledSequence(known, "O" * len(known)))])
    model = build_model(random_embeddings(vocab, table, d_char, d_radical, seed), hidden=hidden,
                        seed=seed, use_radicals=use_radicals)
    for w in model.weights.values():
        w *= scale
    model.weights["crf.trans"][...] = random_crf(make_rng(seed), scale)

    out, expected = segment(model, text), oracle_segment(model, text)
    if out != expected:
        assert out.replace("/", "") == expected.replace("/", "")
        assert_a_path_within_tolerance(model, out)

    # units of the drawn lengths in turn, over the raw text, with random gold tags
    rng = make_rng(seed)
    units, start = [], 0
    while start < len(text):
        chars = text[start:start + lengths[len(units) % len(lengths)]]
        units.append(Unit(LabeledSequence(chars, "".join(rng.choice(list("BEO"), len(chars))))))
        start += len(chars)
    report = evaluate(model, units)
    tp, fp, fn = oracle_counts(model, units)
    if (report.tp, report.fp, report.fn) != (tp, fp, fn):
        assert report.tp + report.fn == tp + fn
        assert any(near_tie(oracle_emissions(model, u.seq.chars), model.weights["crf.trans"])
                   for u in units)


def test_decoding_reads_each_weight_as_it_is_at_the_call(table):
    # a write into any one of model.weights between calls changes the next
    # call's result to that of a new model with the same weights: nothing
    # read from the weights may outlive a call
    known = HAN + ASTRAL_HAN
    vocab = build_vocab([Unit(LabeledSequence(known, "O" * len(known)))])
    model = build_model(random_embeddings(vocab, table, 4, 3, seed=0), hidden=4, seed=0)
    model.weights["crf.trans"][...] = random_crf(make_rng(0), 0.3)
    model.weights["emit.W"] *= 4
    rng = make_rng(100)
    text = "".join(rng.choice(list(known + "石木金"), 250))
    units = [Unit(LabeledSequence(text[i:i + n], "BOE" * (n // 3)))
             for i, n in ((0, 99), (99, 60), (159, 60))]

    def decode(m):
        return segment(m, text), evaluate(m, units)

    before = decode(model)
    for name, w in model.weights.items():
        w += rng.normal(0.0, 1.0, w.shape)
        after = decode(model)
        assert after != before and after == decode(copy.deepcopy(model)), name
        before = after
