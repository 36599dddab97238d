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
from judou.embedding import EmbeddingConfig, train_embeddings, untrained_embeddings
from judou.nncore import make_rng
from judou.radicals import default_table
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
EMPTY = Unit(seq=LabeledSequence("", ""))
HP = Hyperparams(embed_dim=4, hidden=2, batch=1, epochs=1)
CBOW = EmbeddingConfig(d_char=2, d_radical=2, epochs=1)
VOCAB = build_vocab([UNIT])


# Each call used to fail deep inside with a TypeError or an AttributeError,
# save the empty separator, which returned the text with every boundary lost.
# An empty unit used to fail inside the CRF in train, inside the decoder in
# train's validation pass and in evaluate, and to be skipped by
# train_embeddings. The train_embeddings calls take the model argument unused.
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
    ("splits.train", lambda m: train(m, CorpusSplits(train=[UNIT, EMPTY], valid=[], test=[]), HP)),
    ("splits.valid", lambda m: train(m, CorpusSplits(train=[UNIT], valid=[UNIT, EMPTY], test=[]),
                                     HP)),
    ("units", lambda m: evaluate(m, [UNIT, EMPTY])),
    ("units", lambda m: train_embeddings([UNIT, EMPTY], default_table(), CBOW, vocab=VOCAB)),
    ("units", lambda m: train_embeddings(["天地人"], default_table(), CBOW, vocab=VOCAB)),
    ("radtable", lambda m: train_embeddings([UNIT], None, CBOW, vocab=VOCAB)),
    ("cfg", lambda m: train_embeddings([UNIT], default_table(), {"d_char": 2}, vocab=VOCAB)),
    ("vocab", lambda m: train_embeddings([UNIT], default_table(), CBOW, vocab=None)),
], ids=["bytes", "none", "empty", "none", "list", "text-unit", "text-unit", "text-unit", "unit",
        "train-empty-unit", "valid-empty-unit", "evaluate-empty-unit", "pretrain-empty-unit",
        "pretrain-text-unit", "no-table", "dict-config", "no-vocab"])
def test_an_entry_points_invalid_argument_raises_a_value_error_naming_it(name, call, embeddings):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(build_model(embeddings, hidden=2))


# a value of most kinds: no entry point argument is any of them, save text for
# raw and non-empty text for separator, which the pairs below filter out
any_value = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.binary(max_size=3), st.text(max_size=3),
                      st.lists(st.text(max_size=2), min_size=1, max_size=2),
                      st.dictionaries(st.text(max_size=1), st.integers(), max_size=1))
SPLITS = CorpusSplits(train=[UNIT], valid=[], test=[])

# (entry point, argument, values of the wrong type, call(model, value))
ARGUMENTS = [
    ("build_model", "embeddings", any_value, lambda m, v: build_model(v, hidden=2)),
    ("train", "model", any_value, lambda m, v: train(v, SPLITS, HP)),
    ("train", "splits", any_value, lambda m, v: train(m, v, HP)),
    ("train", "splits.train", any_value,
     lambda m, v: train(m, CorpusSplits(train=v, valid=[], test=[]), HP)),
    ("train", "splits.valid", any_value,
     lambda m, v: train(m, CorpusSplits(train=[UNIT], valid=v, test=[]), HP)),
    ("train", "hp", any_value, lambda m, v: train(m, SPLITS, v)),
    ("evaluate", "model", any_value, lambda m, v: evaluate(v, [UNIT])),
    ("evaluate", "units", any_value, lambda m, v: evaluate(m, v)),
    ("segment", "model", any_value, lambda m, v: segment(v, "天地")),
    ("segment", "raw", any_value.filter(lambda v: not isinstance(v, str)),
     lambda m, v: segment(m, v)),
    ("segment", "separator", any_value.filter(lambda v: not (isinstance(v, str) and v)),
     lambda m, v: segment(m, "天地", separator=v)),
    ("train_embeddings", "units", any_value,
     lambda m, v: train_embeddings(v, default_table(), CBOW, vocab=VOCAB)),
    ("train_embeddings", "radtable", any_value,
     lambda m, v: train_embeddings([UNIT], v, CBOW, vocab=VOCAB)),
    ("train_embeddings", "cfg", any_value,
     lambda m, v: train_embeddings([UNIT], default_table(), v, vocab=VOCAB)),
    ("train_embeddings", "vocab", any_value,
     lambda m, v: train_embeddings([UNIT], default_table(), CBOW, vocab=v)),
]


@pytest.fixture(scope="module")
def model(embeddings):
    return build_model(embeddings, hidden=2)


# a model, hp or embeddings of the wrong type used to fail with an AttributeError
@pytest.mark.parametrize("name, values, call", [a[1:] for a in ARGUMENTS],
                         ids=[f"{a[0]}-{a[1]}" for a in ARGUMENTS])
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_an_entry_point_rejects_any_argument_of_the_wrong_type(name, values, call, model, data):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(model, data.draw(values))
