"""Modified-CBOW pretraining tests: context layout, gradients, persistence."""

import struct

import numpy as np
import pytest

from judou.binio import FormatError
from judou.corpus import LabeledSequence, Unit, Vocab, build_vocab, chunk_units
from judou.embedding import (
    CbowModel,
    EmbeddingConfig,
    EmbeddingSet,
    MAGIC,
    cbow_loss_and_grads,
    context_vector,
    encode_chars,
    load_embeddings,
    new_cbow_model,
    save_embeddings,
    train_embeddings,
    _cbow_loss_parts,
    _context_rows,
)
from judou.radicals import radical_index

from oracles import grad_check


def vocab_over(text: str) -> Vocab:
    units = chunk_units(LabeledSequence(text, "O" * len(text)), unit_size=max(2, len(text)))
    return build_vocab(units)


def small_model(text, table, **cfg_kwargs) -> CbowModel:
    cfg = EmbeddingConfig(**{"d_char": 3, "d_radical": 2, "window": 1, **cfg_kwargs})
    return new_cbow_model(vocab_over(text), table, cfg)


# ---------------------------------------------------------------------------
# context assembly

def test_context_vector_length(table):
    model = small_model("天地人", table, d_char=2, d_radical=1, window=1)
    enc = encode_chars("天地人", model.embeddings.vocab, table)
    # 2N slots of (char ++ radical): 2 * 1 * (2 + 1)
    assert context_vector(model, enc, 1).shape == (6,)


def test_out_of_range_slots_use_pad_and_sentinel(table):
    model = small_model("天地", table)
    vocab = model.embeddings.vocab
    enc = encode_chars("天地", vocab, table)
    ctx = context_vector(model, enc, 0)
    cv, rv = model.char_param.value, model.rad_param.value
    expected = np.concatenate([
        cv[Vocab.PAD], rv[0],                       # left slot is off the edge
        cv[vocab.encode("地")], rv[radical_index(table, "地")],
    ])
    assert np.array_equal(ctx, expected)


def test_center_character_is_excluded_from_its_context(table):
    model = small_model("天地人", table)
    enc = encode_chars("天地人", model.embeddings.vocab, table)
    before = context_vector(model, enc, 1)
    model.char_param.value[model.embeddings.vocab.encode("地")] += 10.0
    assert np.array_equal(context_vector(model, enc, 1), before)


def test_context_is_ordered_not_averaged(table):
    model = small_model("天地人", table)
    vocab = model.embeddings.vocab
    a = context_vector(model, encode_chars("天地人", vocab, table), 1)
    b = context_vector(model, encode_chars("人地天", vocab, table), 1)
    d = 5  # d_char + d_radical
    assert not np.allclose(a, b)
    # swapping the neighbours swaps the slot blocks
    assert np.array_equal(a[:d], b[d:])
    assert np.array_equal(a[d:], b[:d])


def loop_context_rows(enc, center, window):
    """The per-slot loop that the array gather replaced, kept as its reference."""
    slots = [*range(center - window, center), *range(center + 1, center + window + 1)]
    return [(int(enc.char_ids[p]), int(enc.rad_ids[p])) if 0 <= p < len(enc) else (Vocab.PAD, 0)
            for p in slots]


@pytest.mark.parametrize("window", [1, 2, 3])
def test_context_rows_match_the_per_slot_loop(table, window):
    enc = encode_chars("天地人山", vocab_over("天地人"), table)  # 山 is out of vocabulary
    for center in range(len(enc)):
        chars, rads = _context_rows(enc, center, window)
        assert list(zip(chars.tolist(), rads.tolist())) == loop_context_rows(enc, center, window)
    for center in (-1, len(enc)):
        with pytest.raises(IndexError, match="center"):
            _context_rows(enc, center, window)


def test_repeated_context_rows_sum_in_slot_order(table):
    """At window 3, 天天天地 puts one character row in up to three slots of a
    context. Its gradient must sum those slots in slot order, bit for bit as
    the per-slot loop did."""
    model, ref = (small_model("天地", table, window=3) for _ in range(2))
    enc = encode_chars("天天天地", model.embeddings.vocab, table)
    d, d_c = model.config.d_total, model.config.d_char
    for center in range(len(enc)):
        cbow_loss_and_grads(model, enc, center)
        _, h, probs = _cbow_loss_parts(ref, enc, center)
        probs[enc.char_ids[center]] -= 1.0
        ref.projection.grad += np.outer(probs, h)
        dh = ref.projection.value.T @ probs
        for slot, (cid, rid) in enumerate(loop_context_rows(enc, center, 3)):
            ref.char_param.grad[cid] += dh[slot * d:slot * d + d_c]
            ref.rad_param.grad[rid] += dh[slot * d + d_c:(slot + 1) * d]
    for p, q in zip(model.params(), ref.params()):
        assert p.grad.tobytes() == q.grad.tobytes()


def test_encode_chars_keeps_radical_for_oov(table):
    vocab = vocab_over("天地")
    enc = encode_chars("海", vocab, table)
    assert enc.char_ids[0] == Vocab.UNK
    assert enc.rad_ids[0] == 85  # water radical survives the unknown character


# ---------------------------------------------------------------------------
# loss and gradients

def test_zero_projection_gives_uniform_loss(table):
    model = small_model("天地人山水", table)
    model.projection.value[:] = 0.0
    enc = encode_chars("天地人", model.embeddings.vocab, table)
    assert _cbow_loss_parts(model, enc, 1)[0] == pytest.approx(
        np.log(model.embeddings.vocab.size))


def test_softmax_is_a_distribution(table):
    model = small_model("天地人山水", table)
    enc = encode_chars("山水天", model.embeddings.vocab, table)
    loss, _, probs = _cbow_loss_parts(model, enc, 1)
    assert probs.sum() == pytest.approx(1.0)
    assert np.all(probs > 0)
    assert loss > 0


def test_center_out_of_range_rejected(table):
    model = small_model("天地人", table)
    enc = encode_chars("天地", model.embeddings.vocab, table)
    with pytest.raises(IndexError, match="center"):
        context_vector(model, enc, 2)


def test_gradients_match_finite_differences(table):
    model = small_model("天地人山水火", table, d_char=3, d_radical=2, window=2)
    enc = encode_chars("天地人山水", model.embeddings.vocab, table)
    cbow_loss_and_grads(model, enc, 2)
    err = grad_check(lambda: _cbow_loss_parts(model, enc, 2)[0], model.params())
    assert err < 1e-4


# ---------------------------------------------------------------------------
# training behaviour

def test_training_loss_decreases(table):
    corpus = ["天地人山水火天地", "山水火天地人山水"]
    cfg = EmbeddingConfig(d_char=4, d_radical=3, window=1, epochs=4,
                          learning_rate=0.2, seed=1)
    losses = []
    train_embeddings(corpus, table, cfg, progress=lambda e, m: losses.append(m))
    assert len(losses) == 4
    assert losses[1] < losses[0]
    assert losses[2] < losses[1]


def test_training_is_seed_deterministic(table):
    corpus = ["天地人山水", "水山人地天"]
    cfg = EmbeddingConfig(d_char=3, d_radical=2, window=1, epochs=2, seed=7)
    a = train_embeddings(corpus, table, cfg)
    b = train_embeddings(corpus, table, cfg)
    assert np.array_equal(a.char_vectors, b.char_vectors)
    assert np.array_equal(a.radical_vectors, b.radical_vectors)
    c = train_embeddings(corpus, table, EmbeddingConfig(
        d_char=3, d_radical=2, window=1, epochs=2, seed=8))
    assert not np.array_equal(a.char_vectors, c.char_vectors)


def test_units_and_strings_train_identically(table):
    text = "天地人山水火"
    vocab = vocab_over(text)
    cfg = EmbeddingConfig(d_char=3, d_radical=2, window=1, epochs=2, seed=3)
    from_str = train_embeddings([text], table, cfg, vocab=vocab)
    from_units = train_embeddings(
        [Unit(seq=LabeledSequence(text, "O" * len(text)))], table, cfg, vocab=vocab)
    assert np.array_equal(from_str.char_vectors, from_units.char_vectors)
    assert np.array_equal(from_str.radical_vectors, from_units.radical_vectors)


def test_empty_corpus_rejected(table):
    with pytest.raises(ValueError, match="empty corpus"):
        train_embeddings([], table, EmbeddingConfig())


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
    emb = train_embeddings(corpus, table, cfg)

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


# ---------------------------------------------------------------------------
# persistence

def trained(table, tmp_path):
    cfg = EmbeddingConfig(d_char=3, d_radical=2, window=2, epochs=1, seed=5)
    emb = train_embeddings(["天地人山水火"], table, cfg)
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

