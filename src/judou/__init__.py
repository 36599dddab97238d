"""judou: sentence segmentation for unpunctuated classical Chinese.

A Bi-LSTM-CRF character tagger over radical-augmented embeddings. The name is
the traditional term for marking sentence breaks in unpunctuated text.
"""

from .corpus import (CorpusSplits, LabeledSequence, PunctConfig, Unit, Vocab,
                     boundary_positions, build_vocab, chunk_units, clean_unsure,
                     normalize_text, split_corpus, tags_to_text, text_to_tags)
from .embedding import (EmbeddingConfig, EmbeddingSet, load_embeddings,
                        save_embeddings, train_embeddings)
from .radicals import (RadicalTable, default_table, load_radical_table,
                       radical_index, radical_of)
from .segmenter import (EvalReport, Hyperparams, SegmenterModel, TrainLog,
                        build_model, evaluate, load_model, save_model,
                        segment, train)

__version__ = "0.1.0"

__all__ = [
    "CorpusSplits", "LabeledSequence", "PunctConfig", "Unit", "Vocab",
    "boundary_positions", "build_vocab", "chunk_units", "clean_unsure",
    "normalize_text", "split_corpus", "tags_to_text", "text_to_tags",
    "EmbeddingConfig", "EmbeddingSet", "load_embeddings", "save_embeddings",
    "train_embeddings",
    "RadicalTable", "default_table", "load_radical_table", "radical_index",
    "radical_of",
    "EvalReport", "Hyperparams", "SegmenterModel", "TrainLog", "build_model",
    "evaluate", "load_model", "save_model", "segment", "train",
]
