"""Each input is checked once, in the type that holds it: an invalid seed,
size, rate or tag string, or an entry point's argument of the wrong type,
raises ValueError with a message that begins with the input's name, never a
KeyError, a ZeroDivisionError, a TypeError, an AttributeError or numpy's own
error from deeper down."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judou.corpus import (TAG_CHARS, CorpusSplits, LabeledSequence, Unit, build_vocab,
                          chunk_units, clean_unsure)
from judou.embedding import EmbeddingConfig, untrained_embeddings
from judou.nncore import make_rng
from judou.segmenter import Hyperparams, build_model, evaluate, segment, train

# a negative int, or anything that is not an int: PCG64 raises TypeError on
# a float or text, and takes None (fresh OS entropy), a bool or a list of ints
invalid_seeds = st.one_of(st.integers(max_value=-1), st.floats(), st.none(), st.booleans(),
                          st.text(max_size=2), st.lists(st.integers(0, 9), max_size=2))


def invalid_sizes(low: int):
    """An int below low, or a float, bool or text: a float size of at least
    low used to pass every check and fail deep in numpy."""
    return st.one_of(st.integers(max_value=low - 1), st.floats(), st.booleans(),
                     st.text(max_size=2))


# (type, size field, least valid value)
SIZES = [(EmbeddingConfig, "d_char", 1), (EmbeddingConfig, "d_radical", 1),
         (EmbeddingConfig, "window", 1), (EmbeddingConfig, "epochs", 0),
         (Hyperparams, "embed_dim", 1), (Hyperparams, "hidden", 1),
         (Hyperparams, "batch", 1), (Hyperparams, "epochs", 0)]

# (type, real-valued field): a bool used to pass as 0 or 1, and text or None
# to fail with a TypeError from a comparison
REALS = [(EmbeddingConfig, "learning_rate"), (Hyperparams, "learning_rate"),
         (Hyperparams, "clip_norm"), (Hyperparams, "dropout")]
not_reals = st.one_of(st.booleans(), st.text(max_size=2), st.none())

# a tag string holding at least one letter outside B, E and O
invalid_tags = st.text(min_size=1, max_size=6).filter(lambda t: not set(t) <= set(TAG_CHARS))


@pytest.fixture(scope="module")
def embeddings(table):
    vocab = build_vocab([Unit(seq=LabeledSequence("天地", "BE"))])
    cfg = EmbeddingConfig(d_char=2, d_radical=2)
    return untrained_embeddings(vocab, table, cfg, make_rng(0))


@settings(deadline=None, max_examples=200)
@given(case=st.one_of(
    invalid_seeds.map(lambda s: ("seed", make_rng, {"seed": s})),
    invalid_seeds.map(lambda s: ("seed", EmbeddingConfig, {"seed": s})),
    invalid_sizes(1).map(lambda h: ("hidden", build_model, {"hidden": h})),
    # max_run -1 used to drop all the text without a word, and a float or
    # text size of either to fail with a TypeError from deep inside
    invalid_sizes(0).map(lambda m: ("max_run", clean_unsure,
                                    {"text": "天地。□□人。", "max_run": m})),
    invalid_sizes(2).map(lambda u: ("unit_size", chunk_units,
                                    {"seq": LabeledSequence("天地人", "BOE"), "unit_size": u})),
    st.sampled_from(SIZES).flatmap(lambda s: invalid_sizes(s[2]).map(
        lambda v: (s[1], s[0], {s[1]: v}))),
    st.sampled_from(REALS).flatmap(lambda s: not_reals.map(lambda v: (s[1], s[0], {s[1]: v}))),
    invalid_tags.map(lambda t: ("tags", LabeledSequence, {"chars": "天" * len(t), "tags": t})),
))
def test_an_invalid_input_raises_a_value_error_naming_it(case, embeddings):
    name, make, kwargs = case
    if make is build_model:
        kwargs = {"embeddings": embeddings, **kwargs}
    with pytest.raises(ValueError, match=f"^{name} must be"):
        make(**kwargs)


UNIT = Unit(seq=LabeledSequence("天地", "BE"))
HP = Hyperparams(embed_dim=4, hidden=2, batch=1, epochs=1)


# Each call used to fail deep inside with a TypeError or an AttributeError,
# save the empty separator, which returned the text with every boundary lost.
@pytest.mark.parametrize("name,call", [
    ("raw", lambda m: segment(m, b"abc")),
    ("raw", lambda m: segment(m, None)),
    ("separator", lambda m: segment(m, "天地", separator="")),
    ("separator", lambda m: segment(m, "天地", separator=None)),
    ("splits", lambda m: train(m, [UNIT], HP)),
    ("splits.train", lambda m: train(m, CorpusSplits(train=["天地"], valid=[], test=[]), HP)),
    ("splits.valid", lambda m: train(m, CorpusSplits(train=[UNIT], valid=["天地"], test=[]), HP)),
    ("units", lambda m: evaluate(m, ["天地"])),
    ("units", lambda m: evaluate(m, UNIT)),
], ids=["bytes", "none", "empty", "none", "list", "text-unit", "text-unit", "text-unit", "unit"])
def test_an_entry_points_invalid_argument_raises_a_value_error_naming_it(name, call, embeddings):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(build_model(embeddings, hidden=2))
