"""Seeded synthetic inputs for the benchmark.

Everything here is a pure function of the seed and the bundled radical
table: a classical-style punctuated corpus, prepared the way `judou prepare`
prepares one (normalize, drop long □ runs, tag, cut into 100-character
units, split 50/25/25), and a set of raw documents for `segment`. Each
source document is cut to whole units, so every seed has the same amount
of work.

Text model: Han characters from the unified block are drawn from a Zipf
law (exponent 0.75) over a seed-dependent ranking, which puts |V| near 3k
in a 5k-character training split. Sentences have 2..11 characters; most end in
a function-word final and every one ends in a stop mark.
"""

from dataclasses import dataclass

import numpy as np

from judou.corpus import (DEFAULT_PUNCT, UNSURE_CHAR, build_vocab, chunk_units,
                          clean_unsure, normalize_text, split_corpus,
                          text_to_tags)

UNIT_SIZE = 100
ZIPF_EXPONENT = 0.75
FINALS = "也矣焉哉乎耳兮歟"
FINAL_SHARE = 0.7
STOP_MARKS = "。，；？！"
STOP_WEIGHTS = (0.45, 0.35, 0.1, 0.05, 0.05)
UNSURE_RATE = 0.002

CORPUS_UNITS = 100
CORPUS_DOCS = 4
PRETRAIN_UNITS = 2

SEGMENT_DOCS = 200
LONG_DOC_SHARE = 0.15
SHORT_DOC_CHARS = (8, 100)    # Han characters, half-open
LONG_DOC_CHARS = (100, 300)
# what real inputs carry besides Han text and stops; `segment` keeps none of it
NON_HAN_TOKENS = (" ", "abc", "123", "IV", "2.", "《", "》", "「", "」", "、", "：")
NON_HAN_SHARE = 0.1  # share of sentences carrying one such token


@dataclass
class Corpus:
    splits: object        # judou.corpus.CorpusSplits
    vocab: object         # judou.corpus.Vocab of the training split
    pretrain_units: list  # the slice of the training split that CBOW runs on


class TextModel:
    """Zipf sampler over the unified-block characters that have a radical."""

    def __init__(self, seed: int, stream: int, table):
        pool = [chr(cp) for cp in sorted(table.entries)
                if 0x4E00 <= cp <= 0x9FA5 and chr(cp) not in FINALS]
        order = np.random.default_rng([seed, 0]).permutation(len(pool))
        self.ranked = np.array([pool[i] for i in order])
        weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_EXPONENT
        self.p = weights / weights.sum()
        self.rng = np.random.default_rng([seed, stream])

    def sentences(self, n_chars: int, non_han_share: float = 0.0) -> str:
        """Punctuated sentences holding at least n_chars Han characters."""
        rng = self.rng
        lengths = []
        total = 0
        while total < n_chars:
            lengths.append(int(rng.integers(2, 12)))
            total += lengths[-1]
        body = self.ranked[rng.choice(len(self.p), size=total, p=self.p)]
        out = []
        pos = 0
        for length in lengths:
            chars = list(body[pos:pos + length])
            pos += length
            if rng.random() < FINAL_SHARE:
                chars[-1] = FINALS[rng.integers(len(FINALS))]
            for i in range(length):
                if rng.random() < UNSURE_RATE:
                    chars[i] = UNSURE_CHAR
            if rng.random() < non_han_share:
                tok = NON_HAN_TOKENS[rng.integers(len(NON_HAN_TOKENS))]
                chars.insert(int(rng.integers(0, length + 1)), tok)
            out.append("".join(chars))
            out.append(STOP_MARKS[rng.choice(len(STOP_MARKS), p=STOP_WEIGHTS)])
        return "".join(out)


def make_corpus(seed: int, table) -> Corpus:
    """CORPUS_UNITS units of tagged text, split with split_corpus(seed)."""
    text_model = TextModel(seed, 1, table)
    units = []
    doc_chars = CORPUS_UNITS * UNIT_SIZE // CORPUS_DOCS
    for d in range(CORPUS_DOCS):
        raw = text_model.sentences(doc_chars)
        text = clean_unsure(normalize_text(raw, DEFAULT_PUNCT), 5, DEFAULT_PUNCT)
        seq = text_to_tags(text, DEFAULT_PUNCT)
        # whole units only, so every seed trains and scores the same amount
        units.extend(chunk_units(seq, UNIT_SIZE, doc_id=f"doc{d}")[:doc_chars // UNIT_SIZE])
    splits = split_corpus(units, seed)
    return Corpus(splits=splits, vocab=build_vocab(splits.train),
                  pretrain_units=splits.train[:PRETRAIN_UNITS])


def make_documents(seed: int, table) -> list:
    """Raw documents for segment: mostly shorter than one unit, with a tail
    spanning several, keeping punctuation, □ and some non-Han tokens.

    Lengths are stratified within each class, so the length quantiles, which
    set the latency quantiles, barely move from seed to seed."""
    text_model = TextModel(seed, 2, table)
    rng = text_model.rng
    n_long = round(SEGMENT_DOCS * LONG_DOC_SHARE)
    lengths = []
    for (lo, hi), count in ((SHORT_DOC_CHARS, SEGMENT_DOCS - n_long), (LONG_DOC_CHARS, n_long)):
        strata = (np.arange(count) + rng.random(count)) / count
        lengths.extend((lo + strata * (hi - lo)).astype(int))
    return [text_model.sentences(int(lengths[i]), NON_HAN_SHARE)
            for i in rng.permutation(len(lengths))]


def input_properties(corpus: Corpus, docs: list) -> dict:
    """The input properties the benchmark's behaviour depends on."""
    s = corpus.splits
    han = [sum(1 for c in normalize_text(d) if c not in DEFAULT_PUNCT.stops) for d in docs]
    return {
        "units": {"train": len(s.train), "valid": len(s.valid), "test": len(s.test)},
        "unit_size": UNIT_SIZE,
        "vocab_size": corpus.vocab.size,
        "pretrain_positions": sum(len(u.seq) for u in corpus.pretrain_units),
        "segment_docs": len(docs),
        "segment_doc_chars_p50": float(np.median(han)),
        "segment_doc_chars_max": int(max(han)),
        "segment_share_longer_than_unit": sum(h > UNIT_SIZE for h in han) / len(han),
    }
