"""The benchmark's import, kept until perfbench calls `untrained_embeddings` itself."""

from .corpus import Vocab
from .embedding import EmbeddingConfig, EmbeddingSet, untrained_embeddings
from .nncore import make_rng
from .radicals import RadicalTable


def random_embeddings(vocab: Vocab, table: RadicalTable, d_char: int,
                      d_radical: int, seed: int) -> EmbeddingSet:
    """The untrained embeddings of a CBOW model seeded seed, without its projection."""
    return untrained_embeddings(vocab, table, EmbeddingConfig(d_char=d_char, d_radical=d_radical),
                                make_rng(seed))
