"""Each input is checked once, in the type that holds it: an invalid seed,
size or tag string raises ValueError with a message naming the input, never
a KeyError, a ZeroDivisionError or numpy's own error from deeper down."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judou.corpus import TAG_CHARS, LabeledSequence, Unit, build_vocab
from judou.embedding import EmbeddingConfig, untrained_embeddings
from judou.nncore import make_rng
from judou.segmenter import build_model

# a negative int, or anything that is not an int: PCG64 raises TypeError on
# a float or text, and takes None (fresh OS entropy) or a list of ints
invalid_seeds = st.one_of(st.integers(max_value=-1), st.floats(), st.none(),
                          st.text(max_size=2), st.lists(st.integers(0, 9), max_size=2))
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
    st.integers(-3, 0).map(lambda h: ("hidden", build_model, {"hidden": h})),
    invalid_tags.map(lambda t: ("tags", LabeledSequence, {"chars": "天" * len(t), "tags": t})),
))
def test_an_invalid_input_raises_a_value_error_naming_it(case, embeddings):
    name, make, kwargs = case
    if make is build_model:
        kwargs = {"embeddings": embeddings, **kwargs}
    with pytest.raises(ValueError, match=name):
        make(**kwargs)
