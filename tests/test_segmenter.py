"""Tagger-level tests: config, metrics, training behaviour, checkpoints."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from judou import binio, lstm, nncore, segmenter
from judou.binio import FormatError
from judou.corpus import (
    TAG_CHARS,
    CorpusSplits,
    LabeledSequence,
    Unit,
    boundary_positions,
    build_vocab,
)
from judou.crf import crf_nll, viterbi_decode
from judou.embedding import encode_chars, encode_units, load_embeddings, save_embeddings
from judou.lstm import bilstm_backward_batch, bilstm_forward_batch
from judou.nncore import make_rng
from judou.segmenter import (
    DECODE_BATCH,
    EMBEDDING_NAMES,
    EvalReport,
    Hyperparams,
    SegmenterModel,
    _backward_batch,
    _decode,
    _forward_batch,
    build_model,
    evaluate,
    load_model,
    save_model,
    segment,
    train,
)
from judou.synthetic import random_embeddings
from synthetic import (RS_D_CHAR, RS_D_RADICAL, RS_HIDDEN, RS_HYPERPARAMS, overfit_corpus,
                       radical_signal_corpus, run_overfit)

from conftest import unit_of
from oracles import full_scale_bilstm_backward_batch, full_scale_bilstm_forward_batch

# the radical table field of a version-3 checkpoint: sha256 of the old file bytes
V3_TABLE_SHA256 = "86564a8df1460f15362aa394035eedcdd0e2877d901b93a20c7c16530b816311"

# sha256 (first 16 hex digits) of each weight of the fresh model in
# test_build_model_draws_the_pinned_weights, as float64 bytes: the data of its
# checkpoint sections, in their order
FRESH_DIGESTS = {
    "emb.char_vectors": "0de043b125ad9e26",
    "emb.radical_vectors": "2c436748f651feee",
    "fwd.W_x": "75406f0f938bcfa7",
    "fwd.W_h": "be375b8f60ab4e93",
    "fwd.W_c": "35192f4eaa2f93c8",
    "fwd.W_co": "c41767c770a4f2f8",
    "fwd.b": "38723a2e5e8a17aa",
    "bwd.W_x": "fcaae2bcb1c3cca1",
    "bwd.W_h": "e8c8d039cbbe3dd8",
    "bwd.W_c": "669c7fb3489cf77d",
    "bwd.W_co": "14215c1d228e95b7",
    "bwd.b": "38723a2e5e8a17aa",
    "emit.W": "23c1eecaa2717036",
    "emit.b": "9d908ecfb6b256de",
    "crf.trans": "6d9c54dee5660c46",
}

# tag indices 0/1/2 = B/E/O, plus the virtual start 3 and stop 4
PERIOD3 = [(3, 0), (0, 2), (2, 1), (1, 0), (1, 4), (2, 4)]
ALL_O = [(3, 2), (2, 2), (2, 4)]


def emissions(model, *texts):
    """Emission scores (B, n, 3) of equal-length texts from one forward pass."""
    encoded = [encode_chars(t, model.vocab, model.radtable) for t in texts]
    P, _ = _forward_batch(model, np.stack([e.char_ids for e in encoded]),
                          np.stack([e.rad_ids for e in encoded]))
    return P


def encode_texts(model, texts) -> tuple:
    """(encoded stream, unit offsets) of texts, as encode_units gives them."""
    return encode_units([unit_of(t, "O" * len(t)) for t in texts], model.vocab, model.radtable)


def predict_tags(model, *texts):
    """Decoded tag strings, all texts decoded together as one stream."""
    encoded, offsets = encode_texts(model, texts)
    tags = "".join(TAG_CHARS[t] for t in _decode(model, encoded, offsets))
    return [tags[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]


# ---------------------------------------------------------------------------
# configuration and report arithmetic

def test_hyperparam_defaults():
    hp = Hyperparams()
    assert (hp.embed_dim, hp.hidden) == (100, 100)
    assert (hp.batch, hp.epochs) == (50, 30)
    assert (hp.learning_rate, hp.clip_norm, hp.dropout) == (0.01, 5.0, 0.5)


@pytest.mark.parametrize("bad", [
    {"embed_dim": 0},
    {"hidden": -1},
    {"batch": 0},
    {"epochs": -1},
    {"learning_rate": -0.1},
    {"clip_norm": 0.0},
    {"dropout": 1.0},
    {"dropout": -0.2},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"clip_norm": float("nan")},
])
def test_hyperparam_validation(bad):
    with pytest.raises(ValueError):
        Hyperparams(**bad)


def test_an_infinite_clip_norm_is_allowed():
    # it means never clip
    assert Hyperparams(clip_norm=float("inf")).clip_norm == float("inf")


def test_eval_report_counts():
    perfect = EvalReport.from_counts(2, 0, 0)
    assert (perfect.precision, perfect.recall, perfect.f1) == (1.0, 1.0, 1.0)
    half = EvalReport.from_counts(1, 1, 1)
    assert (half.precision, half.recall, half.f1) == (0.5, 0.5, 0.5)
    skewed = EvalReport.from_counts(3, 1, 2)
    assert skewed.precision == pytest.approx(0.75)
    assert skewed.recall == pytest.approx(0.6)
    assert skewed.f1 == pytest.approx(2 / 3)


def test_eval_report_degenerate_denominators():
    # nothing predicted: precision denominator is 0 and must not blow up
    no_pred = EvalReport.from_counts(0, 0, 5)
    assert (no_pred.precision, no_pred.recall, no_pred.f1) == (0.0, 0.0, 0.0)
    # nothing in gold: recall denominator is 0
    no_gold = EvalReport.from_counts(0, 5, 0)
    assert (no_gold.precision, no_gold.recall, no_gold.f1) == (0.0, 0.0, 0.0)
    empty = EvalReport.from_counts(0, 0, 0)
    assert (empty.precision, empty.recall, empty.f1) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# forward pass

def test_model_forward_shape(make_model):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    assert emissions(model, "天地人山").shape == (1, 4, 3)
    assert emissions(model, "天地人山", "水火天地").shape == (2, 4, 3)


def test_model_forward_rejects_empty(make_model):
    model = make_model([unit_of("天地", "BE")])
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, [unit_of("天地", "BE"), unit_of("", "")])


def test_oov_emissions_differ_only_through_radicals(make_model):
    units = [unit_of("天地人山水火", "BOEBOE")]
    model = make_model(units)
    # both characters are out of vocabulary; only their radicals distinguish them
    cloud, river = emissions(model, "雲", "江")
    assert np.abs(cloud - river).max() > 0
    char_only = make_model(units, use_radicals=False)
    cloud, river = emissions(char_only, "雲", "江")
    assert np.array_equal(cloud, river)


def test_batched_emissions_match_single_rows(make_model):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    texts = ["天地人山", "水火雲江", "山山山山"]
    batch = emissions(model, *texts)
    for row, text in zip(batch, texts):
        # BLAS may sum a batched product in another order: last-bit differences only
        assert np.allclose(row, emissions(model, text)[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# decoding and metrics fixtures (transitions pinned so decoding is fixed)

def test_predict_tags_follows_forced_transitions(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    # mixed lengths in one call: each length is its own forward pass
    assert predict_tags(model, "天地人山水火", "天地人山水", "天地人") == ["BOEBOE", "BOEBO", "BOE"]
    force_transitions(model, ALL_O)
    assert predict_tags(model, "天地人山") == ["OOOO"]


def test_decode_batches_by_length_up_to_the_cap(make_model, force_transitions, monkeypatch):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    shapes = []

    def recording_forward(model, char_ids, *args, **kwargs):
        shapes.append(char_ids.shape)
        return _forward_batch(model, char_ids, *args, **kwargs)

    monkeypatch.setattr(segmenter, "_forward_batch", recording_forward)
    texts = ["天地人山水火", "天地人"] * DECODE_BATCH + ["天地人山水火"]
    assert predict_tags(model, *texts) == ["BOEBOE", "BOE"] * DECODE_BATCH + ["BOEBOE"]
    assert shapes == [(DECODE_BATCH, 6), (1, 6), (DECODE_BATCH, 3)]


def test_length_groups_are_stream_positions_in_order_of_first_appearance():
    offsets = np.cumsum([0, 3, 2, 3, 1, 2])
    groups = [rows.tolist() for rows in segmenter._length_groups(offsets, [4, 1, 3, 0, 2])]
    assert groups == [[[9, 10], [3, 4]], [[8]], [[0, 1, 2], [5, 6, 7]]]


def test_decode_returns_one_flat_array_over_the_stream(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    encoded, offsets = encode_texts(model, ["天地人", "天地人山水火", "天地"])
    tags = _decode(model, encoded, offsets)
    assert tags.shape == (11,) and tags.dtype == np.intp
    assert "".join(TAG_CHARS[t] for t in tags) == "BOE" + "BOEBOE" + "BO"


def test_evaluate_perfect(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    report = evaluate(model, [unit_of("天地人山水火", "BOEBOE")])
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.f1 == 1.0


def test_evaluate_half_right(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    # gold boundaries {3,4} vs predicted {3,6}
    report = evaluate(model, [unit_of("天地人山水火", "BOEEBO")])
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)


def test_evaluate_nothing_predicted(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, ALL_O)
    report = evaluate(model, [unit_of("天地人山水火", "BOEBOE")])
    assert (report.tp, report.fp, report.fn) == (0, 0, 2)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_evaluate_empty_gold(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    report = evaluate(model, [unit_of("天地人山水火", "BOOOOO")])
    assert (report.tp, report.fp, report.fn) == (0, 2, 0)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_evaluate_accumulates_over_units(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    units = [
        unit_of("天地人山水火", "BOEBOE"),  # pred {3,6} gold {3,6}: tp 2
        unit_of("天地人山水", "BOEEE"),      # pred {3}   gold {3,4,5}: tp 1, fn 2
        unit_of("天地人山水", "BOOOO"),      # pred {3}   gold {}: fp 1
    ]
    report = evaluate(model, units)
    assert (report.tp, report.fp, report.fn) == (3, 1, 2)
    assert report.precision == pytest.approx(0.75)
    assert report.recall == pytest.approx(0.6)
    assert report.f1 == pytest.approx(2 / 3)


def test_evaluate_ignores_b_o_distinction(make_model, force_transitions):
    # only E positions define boundaries, so B/O disagreement is irrelevant
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    a = evaluate(model, [unit_of("天地人山水火", "BOEBOE")])
    b = evaluate(model, [unit_of("天地人山水火", "OOEOOE")])
    assert (a.tp, a.fp, a.fn) == (b.tp, b.fp, b.fn)
    assert boundary_positions("BOEBOE") == boundary_positions("OOEOOE")


# ---------------------------------------------------------------------------
# training behaviour

def tiny_splits():
    units = [
        unit_of("天地人山水火", "BOEBOE"),
        unit_of("山水火天地人", "BOEBOE"),
        unit_of("人火天水地山", "BOEBOE"),
        unit_of("地山水人火天", "BOEBOE"),
    ]
    return CorpusSplits(train=units, valid=units[:2], test=[])


def tiny_hp(**kw):
    base = dict(embed_dim=7, hidden=3, batch=2, epochs=3,
                learning_rate=0.1, clip_norm=5.0, dropout=0.0)
    base.update(kw)
    return Hyperparams(**base)


def test_train_is_seed_deterministic(make_model):
    splits = tiny_splits()
    logs, params = [], []
    for _ in range(2):
        model = make_model(splits.train)
        log = train(model, splits, tiny_hp(dropout=0.3), seed=11)
        logs.append([(r.mean_loss, r.val_report.f1) for r in log.epochs])
        params.append([w.copy() for w in model.weights.values()])
    assert logs[0] == logs[1]
    for a, b in zip(*params):
        assert np.array_equal(a, b)


def test_train_lr_zero_is_a_null_update(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    before = [w.copy() for w in model.weights.values()]
    log = train(model, splits, tiny_hp(learning_rate=0.0), seed=1)
    for w, b in zip(model.weights.values(), before):
        assert np.array_equal(w, b)
    f1s = {r.val_report.f1 for r in log.epochs}
    assert len(f1s) == 1  # identical evaluation every epoch


def test_train_zero_epochs(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    before = [w.copy() for w in model.weights.values()]
    log = train(model, splits, tiny_hp(epochs=0), seed=1)
    assert log.epochs == [] and log.best_epoch is None
    for w, b in zip(model.weights.values(), before):
        assert np.array_equal(w, b)


def test_train_rejects_empty_split(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    empty = CorpusSplits(train=[], valid=splits.valid, test=[])
    with pytest.raises(ValueError, match="empty"):
        train(model, empty, tiny_hp())


def test_freeze_embeddings_keeps_vectors_fixed(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    w = model.weights
    chars, rads = w["emb.char_vectors"].copy(), w["emb.radical_vectors"].copy()
    emit = w["emit.W"].copy()
    train(model, splits, tiny_hp(), seed=2, freeze_embeddings=True)
    assert np.array_equal(w["emb.char_vectors"], chars)
    assert np.array_equal(w["emb.radical_vectors"], rads)
    assert not np.array_equal(w["emit.W"], emit)


def test_frozen_embeddings_take_no_gradient(make_model, monkeypatch):
    """Frozen, train allocates no gradient for either embedding matrix, so no
    step reads or writes one, and both matrices stay bit for bit; every
    other weight still trains."""
    splits = tiny_splits()
    model = make_model(splits.train)
    before = {name: w.copy() for name, w in model.weights.items()}
    real_step, stepped = segmenter.sgd_step, []

    def step(weights, grads, *args):
        stepped.append(list(grads))
        return real_step(weights, grads, *args)

    monkeypatch.setattr(segmenter, "sgd_step", step)
    train(model, splits, tiny_hp(dropout=0.3), seed=5, freeze_embeddings=True)
    trained = [name for name in model.weights if name not in EMBEDDING_NAMES]
    assert len(stepped) == 6 and all(names == trained for names in stepped)
    for name, w in model.weights.items():
        assert np.array_equal(w, before[name]) == (name in EMBEDDING_NAMES), name


def test_freezing_leaves_the_first_steps_other_gradients_bytewise_equal(make_model, monkeypatch):
    """Freezing only skips the scatter into the embedding gradients: with
    dropout and the same seed, the first SGD step of frozen and of unfrozen
    training gets the same bytes for every other weight's gradient."""
    splits = tiny_splits()
    real_step, stepped = segmenter.sgd_step, []

    def step(weights, grads, *args):
        stepped.append({name: g.tobytes() for name, g in grads.items()})
        return real_step(weights, grads, *args)

    monkeypatch.setattr(segmenter, "sgd_step", step)
    firsts = []
    for freeze in (False, True):
        train(make_model(splits.train), splits, tiny_hp(dropout=0.3, epochs=1), seed=5,
              freeze_embeddings=freeze)
        firsts.append(stepped[0])
        stepped.clear()
    unfrozen, frozen = firsts
    assert list(frozen) == [name for name in unfrozen if name not in EMBEDDING_NAMES]
    for name, g in frozen.items():
        assert g == unfrozen[name], name


def test_unfrozen_training_steps_every_weight(make_model, monkeypatch):
    splits = tiny_splits()
    model = make_model(splits.train)
    real_step, stepped = segmenter.sgd_step, []

    def step(weights, grads, *args):
        stepped.append(list(grads))
        return real_step(weights, grads, *args)

    monkeypatch.setattr(segmenter, "sgd_step", step)
    train(model, splits, tiny_hp(), seed=2)
    assert stepped == [list(model.weights)] * 6


def test_best_epoch_parameters_are_restored(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    log = train(model, splits, tiny_hp(epochs=5, learning_rate=0.3), seed=3)
    assert log.best_epoch is not None
    best = log.epochs[log.best_epoch].val_report
    assert all(best.f1 >= r.val_report.f1 for r in log.epochs)
    # the restored parameters reproduce the recorded best validation score
    assert evaluate(model, splits.valid).f1 == best.f1


def test_empty_validation_keeps_the_last_epoch(make_model):
    splits = tiny_splits()
    no_valid = CorpusSplits(train=splits.train, valid=[], test=[])
    model = make_model(splits.train)
    snapshots = []

    def snapshot(*_):
        snapshots.append([w.copy() for w in model.weights.values()])

    log = train(model, no_valid, tiny_hp(epochs=3), seed=6, progress=snapshot)
    assert log.best_epoch == 2
    assert not np.array_equal(snapshots[0][-1], snapshots[-1][-1])  # later epochs moved
    for w, v in zip(model.weights.values(), snapshots[-1]):
        assert np.array_equal(w, v)


def test_training_leaves_the_callers_embeddings_alone(table):
    splits = tiny_splits()
    emb = random_embeddings(build_vocab(splits.train), table, d_char=4, d_radical=3, seed=0)
    chars, rads = emb.char_vectors.copy(), emb.radical_vectors.copy()
    model = build_model(emb, hidden=3)
    train(model, splits, tiny_hp(), seed=2)
    assert not np.array_equal(model.weights["emb.char_vectors"], chars)
    assert not np.array_equal(model.weights["emb.radical_vectors"], rads)
    assert np.array_equal(emb.char_vectors, chars)
    assert np.array_equal(emb.radical_vectors, rads)


def test_training_learns_mixed_length_sentences(make_model):
    # O->E and O->O both occur, so transitions alone cannot fit the data
    units = [
        unit_of("三人行必有我師焉", "BOEBOOOE"),
        unit_of("學而時習之不亦說乎", "BOOOEBOOE"),
    ] * 3
    splits = CorpusSplits(train=units, valid=units[:2], test=[])
    model = make_model(units, d_char=6, d_radical=4, hidden=5)
    hp = Hyperparams(embed_dim=10, hidden=5, batch=6, epochs=30,
                     learning_rate=0.5, clip_norm=5.0, dropout=0.0)
    log = train(model, splits, hp, seed=4)
    assert log.epochs[log.best_epoch].val_report.f1 == 1.0
    assert predict_tags(model, "三人行必有我師焉") == ["BOEBOOOE"]
    assert segment(model, "三人行,必有我師焉。") == "三人行/必有我師焉"


def test_one_crf_call_per_forward_pass(make_model, monkeypatch):
    """Training runs crf_nll and decoding runs viterbi_decode once per forward
    pass, over the pass's whole (B, n) batch."""
    units = [unit_of("三人行必有我師焉", "BOEBOOOE"), unit_of("天地人山水火", "BOEBOE")] * 3
    splits = CorpusSplits(train=units, valid=units[:2], test=[])
    model = make_model(units)
    calls = []

    def recording(name, fn, batch_shape):
        def call(*args, **kwargs):
            calls.append((name, batch_shape(*args)))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(segmenter, "_forward_batch",
                        recording("forward", _forward_batch, lambda m, ids, *_: ids.shape))
    for name in ("crf_nll", "viterbi_decode"):
        monkeypatch.setattr(segmenter, name, recording(name, getattr(segmenter, name),
                                                       lambda P, *_: P.shape[:2]))
    train(model, splits, tiny_hp(batch=6, epochs=1))
    # one training minibatch of two lengths, then the validation pass
    forwards, crf_calls = calls[::2], calls[1::2]
    assert [name for name, _ in forwards] == ["forward"] * 4
    assert [shape for _, shape in crf_calls] == [shape for _, shape in forwards]
    assert sorted(crf_calls) == [("crf_nll", (3, 6)), ("crf_nll", (3, 8)),
                                 ("viterbi_decode", (1, 6)), ("viterbi_decode", (1, 8))]


@pytest.mark.parametrize("clip_norm,rate", [(1e9, 0.0), (1e-9, 1.0)])
def test_epochs_record_their_clip_rate(make_model, clip_norm, rate):
    splits = tiny_splits()
    log = train(make_model(splits.train), splits, tiny_hp(clip_norm=clip_norm), seed=1)
    assert [r.clip_rate for r in log.epochs] == [rate] * 3


def test_the_clip_rate_is_the_share_of_clipped_steps(make_model, monkeypatch):
    # 4 units at batch 2 make 2 steps per epoch; every other step is clipped
    splits = tiny_splits()
    real_step, calls = segmenter.sgd_step, []

    def step(*args):
        real_step(*args)
        calls.append(None)
        return 0.5 if len(calls) % 2 else 1.0

    monkeypatch.setattr(segmenter, "sgd_step", step)
    log = train(make_model(splits.train), splits, tiny_hp(), seed=1)
    assert len(calls) == 6
    assert [r.clip_rate for r in log.epochs] == [0.5] * 3


def test_threaded_training_is_bit_identical(table, both_paths, tmp_path):
    # one 50-unit and one 10-unit minibatch per epoch, with dropout
    units = overfit_corpus(seed=2) + overfit_corpus(seed=3) + overfit_corpus(seed=4)
    splits = CorpusSplits(train=units, valid=units[:10], test=[])
    hp = Hyperparams(embed_dim=7, hidden=3, batch=50, epochs=2, learning_rate=0.1,
                     clip_norm=5.0, dropout=0.5)
    runs = []
    for path in both_paths():
        emb = random_embeddings(build_vocab(units), table, d_char=4, d_radical=3, seed=0)
        model = build_model(emb, hidden=3, seed=1)
        log = train(model, splits, hp, seed=3)
        save_model(model, tmp_path / f"{path}.bin")
        runs.append(([r.mean_loss for r in log.epochs], (tmp_path / f"{path}.bin").read_bytes()))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# training in mixed precision

def lstm_dtypes(arrays):
    """The dtypes of the ten BiLSTM arrays in a weight or gradient dict."""
    return {arrays[f"{d}.{n}"].dtype for d in ("fwd", "bwd") for n in lstm.LSTM_NAMES}


def test_training_runs_the_passes_in_float32_and_the_crf_and_gradients_in_float64(
        make_model, monkeypatch):
    splits = tiny_splits()
    model = make_model(splits.train)
    seen = {"forward": [], "backward": [], "crf_nll": []}

    # the BiLSTM takes the model's float64 arrays and casts them itself
    def forward(weights, xs):
        out, cache = bilstm_forward_batch(weights, xs)
        seen["forward"].append((lstm_dtypes(weights), {xs.dtype, out.dtype}
                                | {a.dtype for direction in cache[1:] for a in direction}))
        return out, cache

    def backward(weights, grads, cache, douts):
        dxs = bilstm_backward_batch(weights, grads, cache, douts)
        seen["backward"].append((lstm_dtypes(weights), {douts.dtype, dxs.dtype},
                                 lstm_dtypes(grads)))
        return dxs

    def nll(P, A, gold):
        loss, dP, dA = crf_nll(P, A, gold)
        seen["crf_nll"].append((P.dtype, A.dtype, dP.dtype, dA.dtype))
        return loss, dP, dA

    monkeypatch.setattr(segmenter, "bilstm_forward_batch", forward)
    monkeypatch.setattr(segmenter, "bilstm_backward_batch", backward)
    monkeypatch.setattr(segmenter, "crf_nll", nll)
    train(model, splits, tiny_hp(dropout=0.3), seed=1)
    # 2 steps of 2 units and one validation pass per epoch
    f32, f64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}
    assert seen["forward"] == [(f64, f32)] * 9
    assert seen["backward"] == [(f64, f32, f64)] * 6
    assert seen["crf_nll"] == [(np.float32, np.float64, np.float64, np.float64)] * 6


def test_training_keeps_the_models_float64_arrays(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    arrays = dict(model.weights)
    before = {name: w.copy() for name, w in arrays.items()}
    train(model, splits, tiny_hp(dropout=0.3), seed=2)
    assert list(model.weights) == list(arrays)
    for name, w in model.weights.items():
        assert w is arrays[name] and w.dtype == np.float64, name
        assert not np.array_equal(w, before[name]), name


def test_a_float32_pass_draws_float64s_dropout_masks_and_holds_them_in_float32(make_model):
    units = [unit_of("天地人山水火", "BOEBOE"), unit_of("山水火天地人", "BOEBOE")]
    model = make_model(units)
    encoded, offsets = encode_units(units, model.vocab, model.radtable)
    [rows] = segmenter._length_groups(offsets, range(len(units)))
    ids = [encoded.char_ids[rows], encoded.rad_ids[rows]]
    P, cache = _forward_batch(model, *ids, make_rng(3), 0.5, dtype=np.float32)
    _, cache64 = _forward_batch(model, *ids, make_rng(3), 0.5)
    assert P.dtype == np.float32
    for name in ("H2", "in_mask", "out_mask"):
        assert cache[name].dtype == np.float32, name
    for name in ("in_mask", "out_mask"):
        assert np.array_equal(cache[name], cache64[name]), name


def fixture_logs(table):
    """Per-epoch (mean loss, validation F1) of the overfit fixture at seed 1 and
    of the radical-signal model at seed 2."""
    splits = radical_signal_corpus(2, table)
    emb = random_embeddings(build_vocab(splits.train), table, RS_D_CHAR, RS_D_RADICAL, seed=2)
    logs = [run_overfit(seed=1)[2],
            train(build_model(emb, hidden=RS_HIDDEN, seed=2), splits, RS_HYPERPARAMS, seed=2)]
    return [[(r.mean_loss, r.val_report.f1) for r in log.epochs] for log in logs]


def test_float32_training_follows_a_float64_run_on_both_fixtures(table, monkeypatch):
    mixed = fixture_logs(table)
    # every pass in float64: the same training, all in the weights' dtype
    forward = segmenter._forward_batch
    monkeypatch.setattr(segmenter, "_forward_batch",
                        lambda *args, dtype: forward(*args, dtype=np.float64))
    reference = fixture_logs(table)
    for run, ref in zip(mixed, reference):
        assert len(run) == len(ref)
        for (loss, f1), (loss64, f1_64) in zip(run, ref):
            assert abs(f1 - f1_64) <= 0.005
            assert abs(loss - loss64) <= 1e-6 * abs(loss64)
        assert run != ref  # the float32 run is not the reference itself


def test_training_and_decoding_are_bytewise_equal_on_the_full_scale_step(table, monkeypatch):
    # minibatches of one to three unit lengths, dropout on, two epochs; then
    # evaluate, and segment a raw text of three units of two lengths
    units = overfit_corpus(seed=2) + [unit_of("天地人山水火", "BOEBOE"), unit_of("山水火", "BOE")]
    splits = CorpusSplits(train=units, valid=units[:12], test=[])
    hp = Hyperparams(embed_dim=7, hidden=6, batch=8, epochs=2, learning_rate=0.1,
                     clip_norm=5.0, dropout=0.5)
    raw = "".join(u.seq.chars for u in units)[:250]
    runs = []
    for forward, backward in ((bilstm_forward_batch, bilstm_backward_batch),
                              (full_scale_bilstm_forward_batch, full_scale_bilstm_backward_batch)):
        monkeypatch.setattr(segmenter, "bilstm_forward_batch", forward)
        monkeypatch.setattr(segmenter, "bilstm_backward_batch", backward)
        emb = random_embeddings(build_vocab(units), table, d_char=4, d_radical=3, seed=0)
        model = build_model(emb, hidden=6, seed=1)
        log = train(model, splits, hp, seed=3)
        runs.append(([(r.mean_loss, r.val_report) for r in log.epochs],
                     {name: w.tobytes() for name, w in model.weights.items()},
                     evaluate(model, units), segment(model, raw)))
    assert runs[0] == runs[1]


# Peak traced bytes of the training step below with the two directions run
# one after the other, H2 and the output mask held through the BiLSTM
# backward pass, and dH2 masked into a new array (numpy 2.4).
SERIAL_STEP_PEAK_BYTES = 92_645_640


def test_a_threaded_training_step_peaks_below_the_serial_step(table):
    B, n = 50, 100
    assert B >= lstm.PARALLEL_MIN_ROWS
    units = [unit_of("天地人山水火木金土日月星春秋冬夏風雨雪也", "BOOOOOOOOOOOOOOOOOOE")]
    emb = random_embeddings(build_vocab(units), table, d_char=70, d_radical=30, seed=0)
    model = build_model(emb, hidden=100, seed=0)
    rng = make_rng(1)
    char_ids = rng.integers(0, emb.vocab.size, size=(B, n))
    rad_ids = rng.integers(0, 215, size=(B, n))
    gold = rng.integers(0, 3, size=(B, n))
    grads = {name: np.zeros_like(w) for name, w in model.weights.items()}

    def step():
        P, cache = _forward_batch(model, char_ids, rad_ids, rng, 0.5)
        _, dP, _ = crf_nll(P, model.weights["crf.trans"], gold)
        del P
        _backward_batch(model, grads, cache, dP / B)

    step()  # lazily allocated state, if any, is not the step's own
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < SERIAL_STEP_PEAK_BYTES, peak


# ---------------------------------------------------------------------------
# segmentation of raw text

def test_segment_empty_and_non_han(make_model):
    model = make_model([unit_of("天地", "BE")])
    assert segment(model, "") == ""
    assert segment(model, "abc 123 !?") == ""


def test_segment_strips_existing_stops(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, ALL_O)
    # stops in the input are dropped before decoding, not echoed back
    assert segment(model, "天地,人。山") == "天地人山"


def test_segment_preserves_characters(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    for arcs in (PERIOD3, ALL_O):
        force_transitions(model, arcs)
        out = segment(model, "天地人山水火天地人山水火")
        assert out.replace("/", "") == "天地人山水火天地人山水火"


def test_segment_boundary_at_unit_join(make_model, force_transitions, monkeypatch):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    monkeypatch.setattr(segmenter, "UNIT_SIZE", 6)
    out = segment(model, "天地人山水火" * 2)
    # each decoded unit ends in E; the join between units must keep its cut
    assert out == "天地人/山水火/天地人/山水火"


def test_segment_custom_separator(make_model, force_transitions):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    force_transitions(model, PERIOD3)
    assert segment(model, "天地人山水火", separator="|") == "天地人|山水火"


# ---------------------------------------------------------------------------
# decoding in float32

def float64_tags(model, encoded, offsets):
    """The float64 reference: _forward_batch on the model's own weights, one
    pass per length, then viterbi_decode."""
    tags = np.empty(offsets[-1], dtype=np.intp)
    for rows in segmenter._length_groups(offsets, range(len(offsets) - 1)):
        P, _ = _forward_batch(model, encoded.char_ids[rows], encoded.rad_ids[rows])
        assert P.dtype == np.float64
        tags[rows] = viterbi_decode(P, model.weights["crf.trans"])
    return tags.tolist()


def assert_float32_tags_are_float64s(model, texts):
    encoded, offsets = encode_texts(model, texts)
    assert _decode(model, encoded, offsets).tolist() == float64_tags(model, encoded, offsets)


def test_float32_decoding_gives_float64s_tags_on_the_trained_overfit_fixture():
    model, report, _ = run_overfit(seed=0)
    assert report.f1 == 1.0
    assert_float32_tags_are_float64s(model, [u.seq.chars for u in overfit_corpus(seed=0)])


def test_float32_decoding_gives_float64s_tags_on_the_radical_signal_test_units(table):
    splits = radical_signal_corpus(0, table)
    emb = random_embeddings(build_vocab(splits.train), table, RS_D_CHAR, RS_D_RADICAL, seed=0)
    model = build_model(emb, hidden=RS_HIDDEN, seed=0)
    train(model, splits, RS_HYPERPARAMS, seed=0)
    assert_float32_tags_are_float64s(model, [u.seq.chars for u in splits.test])


def test_float32_decoding_gives_float64s_tags_on_random_units_of_mixed_lengths(table):
    # 300 Han characters, the first 200 in the vocab and the rest unknown
    pool = [chr(0x4E00 + 7 * k) for k in range(300)]
    rng = make_rng(41)
    vocab = build_vocab([unit_of("".join(pool[:200]), "O" * 200)])
    model = build_model(random_embeddings(vocab, table, d_char=24, d_radical=8, seed=41),
                        hidden=32, seed=41)
    texts = ["".join(rng.choice(pool, size=int(rng.integers(1, 101)))) for _ in range(200)]
    assert_float32_tags_are_float64s(model, texts)


def test_evaluate_and_segment_leave_the_weights_float64_and_unchanged(make_model):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    arrays = dict(model.weights)
    before = {name: w.tobytes() for name, w in arrays.items()}
    evaluate(model, [unit_of("天地人山水火", "BOEBOE"), unit_of("天地", "BE")])
    segment(model, "天地人山水火" * 30)
    assert list(model.weights) == list(arrays)
    for name, w in model.weights.items():
        assert w is arrays[name] and w.dtype == np.float64, name
        assert w.tobytes() == before[name], name


@pytest.mark.parametrize("name,index,value", [
    ("emit.W", (0, 0), np.nan),
    ("fwd.W_x", (1, 2), np.nan),
    ("emb.char_vectors", (slice(None), 0), np.nan),
    ("crf.trans", (0, 1), np.nan),
    ("emit.b", (0, 1), 1e39),  # finite in float64, infinite in float32
    ("bwd.W_h", (0, 0), -1e39),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_decode_raises_a_numeric_error(make_model, name, index, value):
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    model.weights[name][index] = value
    with pytest.raises(nncore.NumericError, match="non-finite"):
        evaluate(model, [unit_of("天地人山水火", "BOEBOE")])
    with pytest.raises(nncore.NumericError, match="non-finite"):
        segment(model, "天地人山水火")


# ---------------------------------------------------------------------------
# checkpoints

def trained_model(make_model):
    splits = tiny_splits()
    model = make_model(splits.train)
    train(model, splits, tiny_hp(epochs=2), seed=5)
    return model


def test_checkpoint_round_trip_bitwise(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path, radtable=table)
    assert back.use_radicals == model.use_radicals
    assert back.vocab.index_to_char == model.vocab.index_to_char
    assert list(back.weights) == list(model.weights)
    for name, w in model.weights.items():
        assert np.array_equal(back.weights[name], w), name
    # behavioural equality, including out-of-vocabulary characters
    text = "天地人山水火雲江"
    assert predict_tags(back, text) == predict_tags(model, text)


def test_weights_float32_cannot_hold_are_refused_before_the_checkpoint_is_opened(make_model,
                                                                                  tmp_path):
    # load_model would refuse such a file; training stops before its weights
    # get there (sgd_step), so the weight is set directly
    splits = tiny_splits()
    model = make_model(splits.train)
    path = tmp_path / "model.bin"
    save_model(model, path)
    before = path.read_bytes()
    model.weights["fwd.W_h"][0, 1] = 1e300
    with pytest.raises(ValueError, match="section 'fwd.W_h' holds .* beyond float32's range"):
        save_model(model, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("valid", [False, True], ids=["no-valid", "valid"])
@pytest.mark.filterwarnings("error")
def test_training_stops_at_the_step_that_leaves_float32s_range(make_model, valid):
    # each pass casts the weights to float32, so a weight beyond its range
    # used to reach the next pass as an infinity, with numpy's warnings and
    # later a non-finite gradient or emission error
    splits = tiny_splits()
    model = make_model(splits.train)
    epochs = []
    with pytest.raises(nncore.NumericError, match=r"parameter '[\w.]+' left float32's range; "
                                                  r"try a learning rate below 1e\+300"):
        train(model, CorpusSplits(train=splits.train, valid=splits.valid if valid else [],
                                  test=[]),
              tiny_hp(epochs=2, learning_rate=1e300), progress=lambda *a: epochs.append(a))
    assert epochs == []


def test_build_model_draws_the_pinned_weights(table):
    vocab = build_vocab([unit_of("天地人山水火", "BOEBOE")])
    model = build_model(random_embeddings(vocab, table, d_char=4, d_radical=3, seed=0),
                        hidden=4, seed=0)
    for name, w in model.weights.items():
        assert w.dtype == np.float64 and w.ndim == 2 and w.flags.c_contiguous, name
    digests = {name: hashlib.sha256(w.tobytes()).hexdigest()[:16]
               for name, w in model.weights.items()}
    assert list(digests.items()) == list(FRESH_DIGESTS.items())


def test_load_model_draws_nothing_and_holds_only_the_sections(make_model, table, tmp_path,
                                                              monkeypatch):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)

    def refuse(*_):
        raise AssertionError("load_model drew weights")

    for module in (segmenter, lstm, nncore):
        for name in ("glorot_uniform", "make_rng"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    back = load_model(path, radtable=table)
    monkeypatch.undo()
    sections = binio.read_container(path, segmenter.MAGIC, segmenter.VERSION, str).sections
    # no gradient buffers: the arrays are the sections' bytes and nothing more
    assert list(back.weights) == list(sections)
    assert sum(w.nbytes for w in back.weights.values()) == sum(v.nbytes for v in sections.values())
    for name, w in back.weights.items():
        assert w.flags.writeable and w.flags.owndata, name
        assert not hasattr(w, "grad")
    assert not hasattr(back, "grad")
    # writeable copies of what was saved: the loaded model trains as the saved one does
    splits = tiny_splits()
    logs = [train(m, splits, tiny_hp(epochs=2), seed=8) for m in (model, back)]
    assert [r.mean_loss for r in logs[0].epochs] == [r.mean_loss for r in logs[1].epochs]
    for name, w in model.weights.items():
        assert np.array_equal(back.weights[name], w), name


def test_embeddings_loaded_without_a_table_train(table, tmp_path):
    # load_embeddings used to leave radtable None, and training on the set
    # then raised AttributeError in encode_chars
    splits = tiny_splits()
    path = tmp_path / "emb.bin"
    save_embeddings(random_embeddings(build_vocab(splits.train), table, d_char=4, d_radical=3,
                                      seed=0), path)
    emb = load_embeddings(path)
    log = train(build_model(emb, hidden=3), splits, tiny_hp(epochs=1), seed=0)
    assert len(log.epochs) == 1
    assert emb.radtable is table


def test_checkpoint_round_trip_char_only(make_model, table, tmp_path):
    model = make_model([unit_of("天地人山水火", "BOEBOE")], use_radicals=False)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path, radtable=table)
    assert back.use_radicals is False
    assert predict_tags(back, "天地人山") == predict_tags(model, "天地人山")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXSEG01\n" + b"\x00" * 100)
    with pytest.raises(FormatError, match="magic"):
        load_model(path)


def test_load_rejects_bad_version(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    data[8] = 99  # version byte follows the 8-byte magic
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="version"):
        load_model(path, radtable=table)


def test_load_rejects_radical_table_mismatch(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    # the header's format field is the table's sha256; change its first digit
    digest = table.sha256.encode()
    other = (b"1" if digest[:1] == b"0" else b"0") + digest[1:]
    path.write_bytes(path.read_bytes().replace(digest, other, 1))
    with pytest.raises(FormatError, match="hash mismatch"):
        load_model(path, radtable=table)


def test_load_rejects_truncated_blob(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(FormatError, match="truncated"):
        load_model(path, radtable=table)


def test_load_rejects_trailing_bytes(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_model(path, radtable=table)


def test_load_rejects_a_version_1_checkpoint(make_model, table, tmp_path):
    # version 1 held per-gate LSTM sections; version 2 the radical flag byte
    # and section offsets; version 3 hashed the radical table's file bytes;
    # version 4 hashes its mapping; version 5 stores the vocab as one string;
    # version 6 writes the field, vocab and section table as one JSON header
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    assert data[8] == 6
    for old in (1, 2, 3, 4, 5):
        data[8] = old
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"version {old}"):
            load_model(path, radtable=table)


def test_load_rejects_a_version_3_checkpoint(make_model, table, tmp_path):
    # written as version 3 wrote it: u32 counts and u32-length strings, one per
    # vocab entry, and the sha256 of the bundled table file's bytes when it
    # held one codepoint per line
    def string(s):
        return struct.pack("<I", len(s.encode())) + s.encode()

    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    path.write_bytes(segmenter.MAGIC + bytes([3]) + string(V3_TABLE_SHA256)
                     + struct.pack("<I", model.vocab.size)
                     + b"".join(string(s) for s in model.vocab.index_to_char)
                     + struct.pack("<I", len(model.weights))
                     + b"".join(string(name) + struct.pack("<II", *w.shape)
                                for name, w in model.weights.items())
                     + b"".join(w.tobytes() for w in model.weights.values()))
    with pytest.raises(FormatError, match="unsupported version 3, expected 6"):
        load_model(path, radtable=table)


def test_load_rejects_invalid_utf8_in_the_vocab(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"<UNK>", b"\xffUNK>", 1))
    with pytest.raises(FormatError, match="UTF-8"):
        load_model(path, radtable=table)


def test_load_rejects_duplicate_vocab_entries(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"<UNK>", b"<PAD>", 1))
    with pytest.raises(FormatError, match="duplicate"):
        load_model(path, radtable=table)


def test_load_rejects_a_section_of_the_right_size_but_wrong_shape(make_model, table, tmp_path):
    model = trained_model(make_model)
    path = tmp_path / "model.bin"
    save_model(model, path)
    rows, cols = model.weights["fwd.W_c"].shape
    assert rows != cols
    entry = '["fwd.W_c",{},{}]'
    data = path.read_bytes()
    assert data.count(entry.format(rows, cols).encode()) == 1
    path.write_bytes(data.replace(entry.format(rows, cols).encode(),
                                  entry.format(cols, rows).encode()))
    with pytest.raises(FormatError, match="fwd.W_c"):
        load_model(path, radtable=table)


def test_load_rejects_a_radical_matrix_of_214_rows(make_model, table, tmp_path):
    # the row count used to escape as EmbeddingSet's bare ValueError
    model = make_model([unit_of("天地人山水火", "BOEBOE")])
    model.weights["emb.radical_vectors"] = model.weights["emb.radical_vectors"][:214]
    path = tmp_path / "model.bin"
    save_model(model, path)
    with pytest.raises(FormatError, match="emb.radical_vectors"):
        load_model(path, radtable=table)
