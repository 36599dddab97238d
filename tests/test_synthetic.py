"""Checks for the synthetic corpora behind the desk-scale experiments."""

import numpy as np
import pytest

from judou.corpus import build_vocab, Vocab
from judou.embedding import N_RADICAL_ROWS, EmbeddingConfig, new_cbow_model
from judou.radicals import radical_of
from judou.synthetic import (
    FILLER_RADICALS,
    OVERFIT_MARKER,
    SPEECH,
    WATER,
    chars_with_radical,
    default_pools,
    overfit_corpus,
    radical_signal_corpus,
    random_embeddings,
)


def test_chars_with_radical_all_carry_it(table):
    got = chars_with_radical(table, WATER, 10)
    assert len(got) == 10
    assert all(radical_of(table, c) == WATER for c in got)
    assert [ord(c) for c in got] == sorted(ord(c) for c in got)


def test_chars_with_radical_skip_is_disjoint(table):
    first = chars_with_radical(table, SPEECH, 6)
    later = chars_with_radical(table, SPEECH, 6, skip=6)
    assert not set(first) & set(later)


def test_chars_with_radical_rejects_impossible_count(table):
    with pytest.raises(ValueError, match="only"):
        chars_with_radical(table, 7, 10_000)


def test_overfit_corpus_shape():
    units = overfit_corpus(seed=0)
    assert len(units) == 20
    for u in units:
        assert len(u.seq) == 21
        assert u.seq.tags == "BOE" * 7
        # the marker closes every sentence, so the mapping is rule-recoverable
        assert all(u.seq.chars[i] == OVERFIT_MARKER for i in range(2, 21, 3))
    assert overfit_corpus(seed=0)[3].seq.chars == units[3].seq.chars
    assert overfit_corpus(seed=1)[3].seq.chars != units[3].seq.chars


def test_radical_signal_corpus_shape(table):
    splits = radical_signal_corpus(0, table)
    assert (len(splits.train), len(splits.valid), len(splits.test)) == (60, 15, 30)
    for u in splits.train + splits.valid + splits.test:
        assert len(u.seq) == 36
        # chunks may start mid-sentence, but the tags stay in the alphabet
        assert set(u.seq.tags) <= set("BEO")
        assert "E" in u.seq.tags


def test_heldout_finals_are_oov_for_the_training_vocab(table):
    pools = default_pools(table)
    splits = radical_signal_corpus(0, table, pools=pools)
    vocab = build_vocab(splits.train)
    # every test-unit sentence final is a character never seen in training
    assert all(vocab.encode(c) == Vocab.UNK for c in pools.finals_heldout)
    train_chars = {c for u in splits.train for c in u.seq.chars}
    assert not train_chars & set(pools.finals_heldout)


def test_heldout_finals_keep_the_designated_radicals(table):
    pools = default_pools(table)
    rids = {radical_of(table, c) for c in pools.finals_heldout}
    assert rids == {WATER, SPEECH}
    # fillers never use the final radicals, so the radical is a clean signal
    filler_rids = {radical_of(table, c)
                   for c in pools.fillers_train + pools.fillers_heldout}
    assert filler_rids == set(FILLER_RADICALS)
    assert not filler_rids & {WATER, SPEECH}


def test_validation_units_avoid_heldout_characters(table):
    pools = default_pools(table)
    splits = radical_signal_corpus(0, table, pools=pools)
    valid_chars = {c for u in splits.valid for c in u.seq.chars}
    heldout = set(pools.finals_heldout) | set(pools.fillers_heldout)
    assert not valid_chars & heldout


def test_random_embeddings_are_the_untrained_cbow_embeddings(table):
    # one draw: the CBOW model's char and radical vectors, before its projection
    vocab = build_vocab(overfit_corpus(seed=0)[:2])
    emb = random_embeddings(vocab, table, 4, 3, 9)
    cbow, _ = new_cbow_model(vocab, table, EmbeddingConfig(d_char=4, d_radical=3, seed=9))
    assert emb.radical_vectors.shape == (N_RADICAL_ROWS, 3)
    assert emb.char_vectors.tobytes() == cbow.char_vectors.tobytes()
    assert emb.radical_vectors.tobytes() == cbow.radical_vectors.tobytes()
    assert emb.config == EmbeddingConfig(d_char=4, d_radical=3)


def test_random_embeddings_are_seeded(table):
    units = overfit_corpus(seed=0)[:2]
    vocab = build_vocab(units)
    a = random_embeddings(vocab, table, d_char=4, d_radical=3, seed=9)
    b = random_embeddings(vocab, table, d_char=4, d_radical=3, seed=9)
    assert np.array_equal(a.char_vectors, b.char_vectors)
    assert a.char_vectors.shape == (vocab.size, 4)
    assert a.radical_vectors.shape == (215, 3)
    assert np.abs(a.char_vectors).max() <= 0.5 / 4
