"""Modified-CBOW pretraining tests: context layout, gradients, persistence."""

import struct
import tracemalloc

import numpy as np
import pytest

from judou.binio import FormatError
from judou.corpus import LabeledSequence, Unit, Vocab, build_vocab
from judou import embedding
from judou.embedding import (
    EmbeddingConfig,
    EmbeddingSet,
    MAGIC,
    cbow_loss_and_grads,
    encode_chars,
    load_embeddings,
    new_cbow_model,
    save_embeddings,
    train_embeddings,
    _context_rows,
)
from judou.nncore import OUTER_BLOCK_BYTES, NumericError, add_outer
from judou.radicals import radical_index

from oracles import (cbow_context_slots, cbow_grad_params, cbow_step, dense_cbow_forward,
                     dense_train_embeddings, grad_check)


def units_over(texts) -> list:
    return [Unit(seq=LabeledSequence(t, "O" * len(t))) for t in texts]


def vocab_over(text: str) -> Vocab:
    return build_vocab(units_over([text]))


def train_on(texts, table, cfg, **kwargs):
    """train_embeddings over units of texts, with the vocab of those units."""
    units = units_over(texts)
    return train_embeddings(units, table, cfg, vocab=build_vocab(units), **kwargs)


def small_model(text, table, **cfg_kwargs) -> tuple:
    """(embeddings, projection) of an untrained CBOW model over text's vocab."""
    cfg = EmbeddingConfig(**{"d_char": 3, "d_radical": 2, "window": 1, **cfg_kwargs})
    return new_cbow_model(vocab_over(text), table, cfg)


def context_h(emb, projection, enc, center) -> np.ndarray:
    """The context vector h that cbow_loss_and_grads takes from _context_rows."""
    chars, rads = _context_rows(enc, emb.config.window)
    return cbow_loss_and_grads(emb, projection, chars[center], rads[center],
                               enc.char_ids[center])[2]


# ---------------------------------------------------------------------------
# context assembly

def test_context_h_has_2n_slots(table):
    emb, projection = small_model("天地人", table, d_char=2, d_radical=1, window=1)
    enc = encode_chars("天地人", emb.vocab, table)
    # 2N slots of (char ++ radical): 2 * 1 * (2 + 1)
    assert context_h(emb, projection, enc, 1).shape == (6,)


def test_out_of_range_slots_use_pad_and_sentinel(table):
    emb, projection = small_model("天地", table)
    enc = encode_chars("天地", emb.vocab, table)
    ctx = context_h(emb, projection, enc, 0)
    cv, rv = emb.char_vectors, emb.radical_vectors
    expected = np.concatenate([
        cv[Vocab.PAD], rv[0],                       # left slot is off the edge
        cv[emb.vocab.encode("地")], rv[radical_index(table, "地")],
    ])
    assert np.array_equal(ctx, expected)


def test_center_character_is_excluded_from_its_context(table):
    emb, projection = small_model("天地人", table)
    enc = encode_chars("天地人", emb.vocab, table)
    before = context_h(emb, projection, enc, 1)
    emb.char_vectors[emb.vocab.encode("地")] += 10.0
    assert np.array_equal(context_h(emb, projection, enc, 1), before)


def test_context_is_ordered_not_averaged(table):
    emb, projection = small_model("天地人", table)
    a = context_h(emb, projection, encode_chars("天地人", emb.vocab, table), 1)
    b = context_h(emb, projection, encode_chars("人地天", emb.vocab, table), 1)
    d = 5  # d_char + d_radical
    assert not np.allclose(a, b)
    # swapping the neighbours swaps the slot blocks
    assert np.array_equal(a[:d], b[d:])
    assert np.array_equal(a[d:], b[:d])


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_context_rows_match_the_per_slot_loop(table, window):
    """Every unit length from 0 to 12, units shorter than the window included,
    with out-of-vocabulary and repeated characters."""
    text = "天地人山水天地江河海天天"  # 山 on are out of vocabulary
    vocab = vocab_over("天地人")
    for n in range(len(text) + 1):
        enc = encode_chars(text[:n], vocab, table)
        chars, rads = _context_rows(enc, window)
        assert chars.shape == rads.shape == (n, 2 * window)
        for center in range(n):
            assert list(zip(chars[center].tolist(), rads[center].tolist())) == \
                cbow_context_slots(enc, center, window)


def test_repeated_context_rows_sum_in_slot_order(table):
    """At window 3, 天天天地 puts one character row in up to three slots of a
    context. The returned dh must hold each slot's gradient, bit for bit as
    the per-slot loop takes it from projection.T @ dlogits, and write nothing
    to the model."""
    emb, projection = small_model("天地", table, window=3)
    before = [a.copy() for a in (emb.char_vectors, emb.radical_vectors, projection)]
    enc = encode_chars("天天天地", emb.vocab, table)
    d, d_c = emb.config.d_total, emb.config.d_char
    chars, rads = _context_rows(enc, 3)
    for center in range(len(enc)):
        _, dlogits, h, dh = cbow_loss_and_grads(emb, projection, chars[center], rads[center],
                                                enc.char_ids[center])
        assert dh.shape == (2 * 3, d)
        _, ref_h, probs = dense_cbow_forward(emb, projection, enc, center)
        probs[enc.char_ids[center]] -= 1.0
        assert dlogits.tobytes() == probs.tobytes() and h.tobytes() == ref_h.tobytes()
        ref_dh = projection.T @ probs
        for slot in range(2 * 3):
            assert dh[slot, :d_c].tobytes() == ref_dh[slot * d:slot * d + d_c].tobytes()
            assert dh[slot, d_c:].tobytes() == ref_dh[slot * d + d_c:(slot + 1) * d].tobytes()
    after = (emb.char_vectors, emb.radical_vectors, projection)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


@pytest.mark.parametrize("bad", [
    {"epochs": -1},
    {"learning_rate": -1.0},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
])
def test_embedding_config_rejects_bad_optimization_settings(bad):
    with pytest.raises(ValueError, match="bad optimization settings"):
        EmbeddingConfig(**bad)


def test_encode_chars_keeps_radical_for_oov(table):
    vocab = vocab_over("天地")
    enc = encode_chars("海", vocab, table)
    assert enc.char_ids[0] == Vocab.UNK
    assert enc.rad_ids[0] == 85  # water radical survives the unknown character


# ---------------------------------------------------------------------------
# loss and gradients

def test_zero_projection_gives_uniform_loss(table):
    emb, projection = small_model("天地人山水", table)
    projection[:] = 0.0
    enc = encode_chars("天地人", emb.vocab, table)
    assert cbow_step(emb, projection, enc, 1)[0] == pytest.approx(np.log(emb.vocab.size))


def test_softmax_is_a_distribution(table):
    emb, projection = small_model("天地人山水", table)
    enc = encode_chars("山水天", emb.vocab, table)
    loss, dlogits, _, _ = cbow_step(emb, projection, enc, 1)
    probs = dlogits.copy()
    probs[enc.char_ids[1]] += 1.0  # dlogits is probs less the target's one-hot
    assert probs.sum() == pytest.approx(1.0)
    assert np.all(probs > 0)
    assert loss > 0


def test_gradients_match_finite_differences(table):
    emb, projection = small_model("天地人山水火", table, d_char=3, d_radical=2, window=2)
    enc = encode_chars("天地人山水", emb.vocab, table)
    err = grad_check(lambda: cbow_step(emb, projection, enc, 2)[0],
                     *cbow_grad_params(emb, projection, enc, 2))
    assert err < 1e-4


# ---------------------------------------------------------------------------
# training behaviour

def test_training_loss_decreases(table):
    corpus = ["天地人山水火天地", "山水火天地人山水"]
    cfg = EmbeddingConfig(d_char=4, d_radical=3, window=1, epochs=4,
                          learning_rate=0.2, seed=1)
    losses = []
    train_on(corpus, table, cfg, progress=lambda e, m: losses.append(m))
    assert len(losses) == 4
    assert losses[1] < losses[0]
    assert losses[2] < losses[1]


def test_training_is_seed_deterministic(table):
    corpus = ["天地人山水", "水山人地天"]
    cfg = EmbeddingConfig(d_char=3, d_radical=2, window=1, epochs=2, seed=7)
    a = train_on(corpus, table, cfg)
    b = train_on(corpus, table, cfg)
    assert np.array_equal(a.char_vectors, b.char_vectors)
    assert np.array_equal(a.radical_vectors, b.radical_vectors)
    c = train_on(corpus, table, EmbeddingConfig(
        d_char=3, d_radical=2, window=1, epochs=2, seed=8))
    assert not np.array_equal(a.char_vectors, c.char_vectors)


def test_empty_corpus_rejected(table):
    with pytest.raises(ValueError, match="empty corpus"):
        train_embeddings([], table, EmbeddingConfig(), vocab=vocab_over("天"))


def test_shared_radical_pulls_vectors_together(table):
    # two families whose members only ever co-occur within their own family;
    # the shared radical row then acts as a family marker in the full vectors
    water = "江河海汁汗"
    speech = "詩語論訓記"
    assert {radical_index(table, c) for c in water} == {85}
    assert {radical_index(table, c) for c in speech} == {149}

    rng = np.random.default_rng(42)
    corpus = []
    for i in range(30):
        pool = water if i % 2 == 0 else speech
        corpus.append("".join(rng.choice(list(pool)) for _ in range(6)))
    cfg = EmbeddingConfig(d_char=8, d_radical=8, window=1, epochs=8,
                          learning_rate=0.1, seed=4)
    emb = train_on(corpus, table, cfg)

    def full_vec(ch):
        i = emb.vocab.encode(ch)
        rid = radical_index(table, ch)
        return np.concatenate([emb.char_vectors[i], emb.radical_vectors[rid]])

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    same, cross = [], []
    for grp in (water, speech):
        for i in range(len(grp)):
            for j in range(i + 1, len(grp)):
                same.append(cosine(full_vec(grp[i]), full_vec(grp[j])))
    for a in water:
        for b in speech:
            cross.append(cosine(full_vec(a), full_vec(b)))
    assert np.mean(same) > np.mean(cross)


def test_lr_too_high_fails_at_the_first_non_finite_loss(table):
    corpus = ["天地人山水火天地", "山水火天地人山水"]
    cfg = EmbeddingConfig(d_char=6, d_radical=4, window=2, epochs=3, learning_rate=50.0)
    losses = []
    with pytest.raises(NumericError, match=r"CBOW loss is (inf|nan) at epoch 1, unit \d+, position"):
        train_on(corpus, table, cfg, progress=lambda e, m: losses.append(m))
    assert losses == []


def test_non_finite_vectors_after_the_last_step_fail(table, monkeypatch):
    # the last step's loss is finite; only the final check can see its update
    real = embedding.cbow_loss_and_grads
    calls = []

    def poisoned(*args):
        out = real(*args)
        calls.append(out[0])
        if len(calls) == 3:
            out[3][0] = np.inf
        return out

    monkeypatch.setattr(embedding, "cbow_loss_and_grads", poisoned)
    with pytest.raises(NumericError, match="non-finite embedding vectors"):
        train_on(["天地人"], table, EmbeddingConfig(d_char=3, d_radical=2, epochs=1))
    assert len(calls) == 3


def block_rows(cols: int) -> int:
    return OUTER_BLOCK_BYTES // (cols * 8)


@pytest.mark.parametrize("rows", [1, 7, 300])
def test_add_outer_matches_the_dense_expressions_bytewise(rows):
    # 600 columns are 4800-byte rows, 83 to a block: 300 rows end in a partial block
    assert 300 % block_rows(600) and 300 > 3 * block_rows(600)
    rng = np.random.default_rng(rows)
    a, b, M = rng.normal(size=rows), rng.normal(size=600), rng.normal(size=(rows, 600))
    # zero products of either sign, added to signed zeros, keep the dense signs
    a[::3] = -0.0
    M[:, ::5] = -0.0
    grad = np.zeros_like(M)
    grad += np.outer(a, b)
    stepped, summed = M.copy(), M.copy()
    add_outer(stepped, a, b, -0.05)
    assert stepped.tobytes() == (M - 0.05 * grad).tobytes()
    add_outer(summed, a, b, 1.0)
    assert summed.tobytes() == (M + grad).tobytes()


@pytest.mark.parametrize("window", [1, 2, 3])
def test_sparse_steps_match_the_dense_oracle_bytewise(table, window):
    """Context-row updates and the blocked projection update give the dense
    per-position step's vectors and losses, bit for bit, over a vocab that
    spans several projection blocks and ends in a partial one, with one
    character repeated across the slots of a context, and with units of one
    and two characters, shorter than windows 2 and 3."""
    alphabet = [chr(0x4E00 + i) for i in range(298)] + ["天", "地"]
    vocab = vocab_over("".join(alphabet))
    cfg = EmbeddingConfig(window=window, epochs=2, learning_rate=0.1, seed=window)
    rows = block_rows(2 * window * cfg.d_total)
    assert vocab.size > rows and vocab.size % rows
    rng = np.random.default_rng(window)
    corpus = ["".join(rng.choice(alphabet, size=40)) for _ in range(3)] + ["天天天地", "地", "天地"]
    losses = []
    emb = train_embeddings(units_over(corpus), table, cfg, vocab=vocab,
                           progress=lambda e, m: losses.append(m))
    chars, rads, ref_losses = dense_train_embeddings(corpus, vocab, table, cfg)
    assert emb.char_vectors.tobytes() == chars.tobytes()
    assert emb.radical_vectors.tobytes() == rads.tobytes()
    assert losses == ref_losses


def test_an_epoch_at_full_vocab_holds_no_dense_temporaries(table):
    """The projection is the only array of its size: one epoch at |V| of
    about 3000 (dims 70+30, window 2) peaks below 1.5 times the projection's
    bytes, where a gradient buffer would add one more and a dense update two."""
    vocab = vocab_over("".join(chr(0x4E00 + i) for i in range(2997)))
    cfg = EmbeddingConfig(window=2, epochs=1, seed=1)
    projection_bytes = vocab.size * 2 * cfg.window * cfg.d_total * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_embeddings(units_over(["天地人山水火天地", "江河海"]), table, cfg, vocab=vocab)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * projection_bytes, f"peak {peak / projection_bytes:.2f}x the projection"


# ---------------------------------------------------------------------------
# persistence

def trained(table, tmp_path):
    cfg = EmbeddingConfig(d_char=3, d_radical=2, window=2, epochs=1, seed=5)
    emb = train_on(["天地人山水火"], table, cfg)
    path = tmp_path / "emb.bin"
    save_embeddings(emb, path)
    return emb, path


def test_save_load_round_trip_is_bitwise(table, tmp_path):
    emb, path = trained(table, tmp_path)
    back = load_embeddings(path, radtable=table)
    assert back.vocab.index_to_char == emb.vocab.index_to_char
    assert back.config.d_char == 3
    assert back.config.d_radical == 2
    assert back.config.window == 2
    assert np.array_equal(back.char_vectors, emb.char_vectors)
    assert np.array_equal(back.radical_vectors, emb.radical_vectors)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTEMB1\n" + b"\x00" * 64)
    with pytest.raises(FormatError, match="magic"):
        load_embeddings(path)


def test_load_rejects_truncated_file(table, tmp_path):
    _, path = trained(table, tmp_path)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(FormatError):
        load_embeddings(path)


def test_load_rejects_trailing_bytes(table, tmp_path):
    _, path = trained(table, tmp_path)
    path.write_bytes(path.read_bytes() + b"x")
    with pytest.raises(FormatError, match="trailing"):
        load_embeddings(path)


def test_load_rejects_a_version_1_file(table, tmp_path):
    # version 1 had no version byte: fixed dims, a reserved u32, bare matrices
    emb, path = trained(table, tmp_path)
    header = struct.pack("<5I", emb.vocab.size, emb.d_char, emb.d_radical, emb.config.window, 0)
    vocab = b"".join(struct.pack("<I", len(s.encode())) + s.encode()
                     for s in emb.vocab.index_to_char)
    path.write_bytes(MAGIC + header + vocab + emb.char_vectors.tobytes()
                     + emb.radical_vectors.tobytes())
    with pytest.raises(FormatError, match="version"):
        load_embeddings(path)


def test_load_rejects_a_window_of_zero(table, tmp_path):
    # the window used to escape as EmbeddingConfig's bare ValueError
    emb, path = trained(table, tmp_path)
    emb.config.window = 0
    save_embeddings(emb, path)
    with pytest.raises(FormatError, match="window"):
        load_embeddings(path)


def test_load_rejects_invalid_utf8_in_the_vocab(table, tmp_path):
    _, path = trained(table, tmp_path)
    path.write_bytes(path.read_bytes().replace(b"<UNK>", b"\xffUNK>", 1))
    with pytest.raises(FormatError, match="UTF-8"):
        load_embeddings(path)


def test_load_rejects_duplicate_vocab_entries(table, tmp_path):
    _, path = trained(table, tmp_path)
    path.write_bytes(path.read_bytes().replace(b"<UNK>", b"<PAD>", 1))
    with pytest.raises(FormatError, match="duplicate"):
        load_embeddings(path)

