"""Radical-augmented character embeddings, pretrained with a modified CBOW.

Each position is represented by the concatenation of a character vector and
the vector of its radical (`encode_chars` finds a string's radical rows with
one gather from the table's per-codepoint ids). The context of a center
position is the ordered concatenation of these pairs over the 2N surrounding
positions, and a single projection predicts the center character with a full
softmax; keeping the positional order (instead of averaging the context) is
what lets the model weight the radical slots differently from the character
slots.

Every matrix starts uniform in [-0.5/dim, 0.5/dim], dim its row length. One
generator draws the char vectors, then the radical vectors (`untrained_embeddings`,
also behind `synthetic.random_embeddings`), then the projection.

Training is per-position SGD, but the projection is not rewritten at every
step: its rank-1 steps wait as the rows of two small arrays, every step
corrects its two products with the projection by them, and one blocked GEMM
applies PENDING_UPDATES of them at a time, so that a pass that writes the
(|V|, 2N * d) projection serves that many positions instead of one. The
projection, its waiting rows and their products are float32, the rest float64.
"""

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import binio
from .corpus import Vocab, check_units
from .nncore import NumericError, add_low_rank, check_int, check_real, check_type, make_rng
from .radicals import N_RADICALS, NO_RADICAL, RadicalTable, default_table

MAGIC = b"GJEMB01\n"
VERSION = 4
N_RADICAL_ROWS = N_RADICALS + 1  # row 0 is the no-radical sentinel
# Projection steps applied by one GEMM. Over one epoch at |V| = 2983 (dims
# 70+30, window 2, one BLAS thread), 8 gave 2.4 times the positions/s of a
# rank-1 update at every step, and 16 to 64 gave 2.5 to 2.7 times.
PENDING_UPDATES = 16
# the char then the radical table, as the two formats save them
EMBEDDING_NAMES = ("emb.char_vectors", "emb.radical_vectors")


def embedding_shapes(vocab_size: int, d_char: int, d_radical: int) -> dict:
    """The two embedding tables' (rows, cols) by section name."""
    return dict(zip(EMBEDDING_NAMES, [(vocab_size, d_char), (N_RADICAL_ROWS, d_radical)]))


@dataclass
class EmbeddingConfig:
    d_char: int = 70
    d_radical: int = 30
    window: int = 2
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, low in (("d_char", 1), ("d_radical", 1), ("window", 1), ("epochs", 0),
                          ("seed", 0)):
            check_int(name, getattr(self, name), low)
        if not 0 <= check_real("learning_rate", self.learning_rate) < math.inf:
            raise ValueError(f"bad optimization settings: {self}")

    @property
    def d_total(self) -> int:
        return self.d_char + self.d_radical


@dataclass
class EmbeddingSet:
    char_vectors: np.ndarray   # (|V|, d_char)
    radical_vectors: np.ndarray  # (N_RADICAL_ROWS, d_radical)
    vocab: Vocab
    radtable: RadicalTable = field(repr=False)
    config: EmbeddingConfig = field(default_factory=EmbeddingConfig)

    def __post_init__(self):
        shapes = embedding_shapes(self.vocab.size, self.d_char, self.d_radical)
        for (name, want), m in zip(shapes.items(), (self.char_vectors, self.radical_vectors)):
            if m.shape != want:
                raise ValueError(f"{name}: shape {m.shape}, expected {want}")

    @property
    def d_char(self) -> int:
        return self.char_vectors.shape[1]

    @property
    def d_radical(self) -> int:
        return self.radical_vectors.shape[1]


@dataclass
class EncodedUnit:
    """Characters as parallel vocab indices and radical indices."""

    char_ids: np.ndarray
    rad_ids: np.ndarray


def encode_chars(chars: str, vocab: Vocab, radtable: RadicalTable) -> EncodedUnit:
    """Vocab rows (UNK if absent) and radical rows of characters, by array
    lookups: an out-of-vocabulary character keeps its true radical."""
    # surrogatepass keeps a lone surrogate as its own codepoint, as ord() does
    codepoints = np.frombuffer(chars.encode("utf-32-le", "surrogatepass"), "<u4")
    char_ids = map(vocab.char_to_index.get, chars, repeat(Vocab.UNK))
    return EncodedUnit(char_ids=np.fromiter(char_ids, np.intp, len(chars)),
                       rad_ids=radtable.ids[codepoints].astype(np.intp))


def encode_units(units: list, vocab: Vocab, radtable: RadicalTable) -> tuple:
    """The units' characters encoded as one stream, and their (U + 1,) offsets
    in it: unit i is stream positions offsets[i]:offsets[i + 1]."""
    encoded = encode_chars("".join(u.seq.chars for u in units), vocab, radtable)
    return encoded, np.cumsum([0, *(len(u.seq) for u in units)])


def _uniform(rng, rows: int, dim: int, dtype=np.float64) -> np.ndarray:
    """A (rows, dim) matrix of dtype uniform in [-0.5/dim, 0.5/dim], drawn 256
    rows at a time: one whole draw's values and rng state, no float64 copy of it."""
    out = np.empty((rows, dim), dtype)
    for block in np.split(out, range(256, rows, 256)):
        block[:] = rng.uniform(-0.5 / dim, 0.5 / dim, size=block.shape)
    return out


def untrained_embeddings(vocab: Vocab, radtable: RadicalTable, cfg: EmbeddingConfig,
                         rng: np.random.Generator) -> EmbeddingSet:
    """The char vectors, then the N_RADICAL_ROWS radical vectors, drawn from rng."""
    return EmbeddingSet(char_vectors=_uniform(rng, vocab.size, cfg.d_char),
                        radical_vectors=_uniform(rng, N_RADICAL_ROWS, cfg.d_radical),
                        vocab=vocab, radtable=radtable, config=cfg)


def _context_rows(encoded: EncodedUnit, lo: int, hi: int, window: int) -> tuple:
    """(hi - lo, 2N) char and radical rows of every center's context slots in
    order, for the unit at stream positions lo:hi of encoded; the center is
    excluded and slots outside the unit take the PAD and NO_RADICAL rows."""
    pos = np.arange(lo, hi)[:, None] + np.r_[-window:0, 1:window + 1]
    inside = (pos >= lo) & (pos < hi)
    pos[~inside] = 0
    return (np.where(inside, encoded.char_ids[pos], Vocab.PAD),
            np.where(inside, encoded.rad_ids[pos], NO_RADICAL))


def cbow_loss_and_grads(emb: EmbeddingSet, projection: np.ndarray, chars: np.ndarray,
                        rads: np.ndarray, target: int, pending: tuple = None) -> tuple:
    """Forward plus hand-derived backward at one center, from the (2N,) char
    and radical rows of its context (a row of _context_rows) and its char
    row target; writes nothing. Returns (loss, dlogits, h, dh).

    h concatenates (char vector, radical vector) over the slots in order,
    and the projection's gradient is outer(dlogits, h). dh, shaped
    (2N, d_char + d_radical), holds each slot's gradient: its first d_char
    columns belong to the slot's char row and the rest to its radical row.

    pending, if given, is (G, Hs, scale): updates not yet applied, so that
    the projection in effect is projection + scale * G.T @ Hs. Both products
    with it go through the k rows of G and Hs, not through a new matrix. They
    run in the projection's dtype; everything else, the returns included, is float64."""
    h = np.hstack([emb.char_vectors[chars], emb.radical_vectors[rads]]).reshape(-1)
    h_p = h.astype(projection.dtype, copy=False)
    logits = projection @ h_p
    if pending is not None:
        G, Hs, scale = pending
        logits += G.T @ (scale * (Hs @ h_p))
    logits = logits.astype(np.float64, copy=False)
    logits -= logits.max()
    exp = np.exp(logits)
    dlogits = exp / exp.sum()  # the softmax, until the target's one-hot is taken off
    loss = -float(np.log(dlogits[target]))
    dlogits[target] -= 1.0
    d_p = dlogits.astype(projection.dtype, copy=False)
    dh = projection.T @ d_p
    if pending is not None:
        dh += Hs.T @ (scale * (G @ d_p))
    return loss, dlogits, h, dh.astype(np.float64, copy=False).reshape(len(chars), -1)


def train_embeddings(units: list, radtable: RadicalTable, cfg: EmbeddingConfig,
                     vocab: Vocab, progress=None) -> EmbeddingSet:
    """Pretrain on a list of units over vocab and return the embeddings.

    Plain per-pair SGD over every (unit, center) position, in corpus order,
    for cfg.epochs epochs. Context windows never cross unit boundaries. A step
    changes only the 2N context rows of the char and radical matrices: it sums
    their slot gradients into a zeroed scratch array made once per call,
    applies them at those rows and zeroes them there again. The projection's
    step -lr * outer(dlogits, h) is kept as dlogits in a row of G and h in a
    row of Hs; the steps after it see it through cbow_loss_and_grads' pending
    rows, and once PENDING_UPDATES rows wait, add_low_rank applies them in
    cache-sized row blocks. Pending rows carry across units and epochs; those
    left at the end go with the projection, which is not returned. The units
    are encoded once, as one stream, and each unit's context rows are built
    from its span as it comes up.

    One generator seeded cfg.seed draws the untrained embeddings, then the
    (|V|, 2N * d) projection, float32 as G and Hs are. The iterates are those
    of the dense update `value -= lr * grad` over all three matrices with the
    projection in float32: with PENDING_UPDATES = 1 bit for bit, otherwise
    with the products summed in another order, so that the vectors differ
    from it by about 2e-7 of their largest entry (and from all-float64
    pretraining by about 1e-7 relative).
    The model keeps no gradient buffers. Raises NumericError at the first
    non-finite loss, or if the returned vectors are not finite.
    """
    check_units("units", units)
    check_type("radtable", radtable, RadicalTable)
    check_type("cfg", cfg, EmbeddingConfig)
    check_type("vocab", vocab, Vocab)
    if not units:
        raise ValueError("cannot train embeddings on an empty corpus")
    rng = make_rng(cfg.seed)
    emb = untrained_embeddings(vocab, radtable, cfg, rng)
    projection = _uniform(rng, vocab.size, 2 * cfg.window * cfg.d_total, np.float32)
    encoded, offsets = encode_units(units, vocab, radtable)
    lr, d_c = float(cfg.learning_rate), cfg.d_char  # a numpy rate would promote to float64
    # (matrix, its scratch gradient, its columns of dh)
    sparse = ((emb.char_vectors, np.zeros_like(emb.char_vectors), np.s_[:, :d_c]),
              (emb.radical_vectors, np.zeros_like(emb.radical_vectors), np.s_[:, d_c:]))
    G = np.empty((PENDING_UPDATES, projection.shape[0]), np.float32)
    Hs = np.empty((PENDING_UPDATES, projection.shape[1]), np.float32)
    k = 0  # rows of G and Hs not yet applied to the projection
    for epoch in range(cfg.epochs):
        total = 0.0
        # every loss is checked, so numpy's overflow warnings would only repeat it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for unit, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                for center, rows in enumerate(zip(*_context_rows(encoded, lo, hi, cfg.window))):
                    loss, dlogits, h, dh = cbow_loss_and_grads(
                        emb, projection, *rows, encoded.char_ids[lo + center],
                        (G[:k], Hs[:k], -lr) if k else None)
                    if not math.isfinite(loss):
                        raise NumericError(f"CBOW loss is {loss} at epoch {epoch + 1}, "
                                           f"unit {unit}, position {center}; "
                                           f"try a learning rate below {lr}")
                    total += loss
                    G[k], Hs[k] = dlogits, h
                    k += 1
                    if k == PENDING_UPDATES:
                        add_low_rank(projection, G, Hs, -lr)
                        k = 0
                    for (M, grad, cols), slots in zip(sparse, rows):
                        # add.at sums a row repeated across slots in slot order
                        np.add.at(grad, slots, dh[cols])
                        M[slots] -= lr * grad[slots]
                        grad[slots] = 0.0
        mean = total / int(offsets[-1])
        if progress is not None:
            progress(epoch, mean)
    if not (np.isfinite(emb.char_vectors).all() and np.isfinite(emb.radical_vectors).all()):
        raise NumericError("CBOW training left non-finite embedding vectors; "
                           f"try a learning rate below {lr}")
    return emb


# ---------------------------------------------------------------------------
# persistence

def save_embeddings(emb: EmbeddingSet, path) -> None:
    binio.write_container(path, MAGIC, VERSION, emb.config.window, emb.vocab,
                          zip(EMBEDDING_NAMES, (emb.char_vectors, emb.radical_vectors)))


def load_embeddings(path) -> EmbeddingSet:
    """An embedding file, with the bundled radical table, as the owned,
    range-checked sections from take_all."""
    c = binio.read_container(path, MAGIC, VERSION, int)
    d_char, d_radical = (c.shape(name)[1] for name in EMBEDDING_NAMES)
    char_vectors, radical_vectors = c.take_all(
        embedding_shapes(c.vocab.size, d_char, d_radical)).values()
    try:
        cfg = EmbeddingConfig(d_char=d_char, d_radical=d_radical, window=c.field)
    except ValueError as e:
        raise binio.FormatError(str(e)) from None
    return EmbeddingSet(char_vectors=char_vectors, radical_vectors=radical_vectors,
                        vocab=c.vocab, radtable=default_table(), config=cfg)
