"""Radical-augmented character embeddings, pretrained with a modified CBOW.

Each position is represented by the concatenation of a character vector and
the vector of its radical. The context of a center position is the ordered
concatenation of these pairs over the 2N surrounding positions, and a single
projection predicts the center character with a full softmax; keeping the
positional order (instead of averaging the context) is what lets the model
weight the radical slots differently from the character slots.

Every matrix starts uniform in [-0.5/dim, 0.5/dim], dim its row length. One
generator draws the char vectors, then the radical vectors (`untrained_embeddings`,
also behind `synthetic.random_embeddings`), then the projection.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import binio
from .corpus import Vocab
from .nncore import NumericError, add_outer, check_seed, make_rng
from .radicals import N_RADICALS, NO_RADICAL, RadicalTable, default_table, radical_index

MAGIC = b"GJEMB01\n"
VERSION = 4
N_RADICAL_ROWS = N_RADICALS + 1  # row 0 is the no-radical sentinel


@dataclass
class EmbeddingConfig:
    d_char: int = 70
    d_radical: int = 30
    window: int = 2
    epochs: int = 5
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.d_char < 1 or self.d_radical < 1 or self.window < 1:
            raise ValueError(f"dims and window must be >= 1: {self}")
        if self.epochs < 0 or not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"bad optimization settings: {self}")
        check_seed(self.seed)

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
        if self.char_vectors.shape[0] != self.vocab.size:
            raise ValueError(
                f"char matrix rows {self.char_vectors.shape[0]} != vocab size {self.vocab.size}")
        if self.radical_vectors.shape[0] != N_RADICAL_ROWS:
            raise ValueError(
                f"radical matrix must have {N_RADICAL_ROWS} rows, got {self.radical_vectors.shape[0]}")

    @property
    def d_char(self) -> int:
        return self.char_vectors.shape[1]

    @property
    def d_radical(self) -> int:
        return self.radical_vectors.shape[1]


@dataclass
class EncodedUnit:
    """A unit's characters as parallel vocab indices and radical indices."""

    char_ids: np.ndarray
    rad_ids: np.ndarray

    def __len__(self) -> int:
        return len(self.char_ids)


def encode_chars(chars: str, vocab: Vocab, radtable: RadicalTable) -> EncodedUnit:
    """Vocab-encode characters; radicals come from the character itself, so an
    out-of-vocabulary character still keeps its true radical."""
    return EncodedUnit(
        char_ids=np.array([vocab.encode(c) for c in chars], dtype=np.intp),
        rad_ids=np.array([radical_index(radtable, c) for c in chars], dtype=np.intp),
    )


def _uniform(rng, rows: int, dim: int) -> np.ndarray:
    """A (rows, dim) matrix uniform in [-0.5/dim, 0.5/dim]."""
    return rng.uniform(-0.5 / dim, 0.5 / dim, size=(rows, dim))


def untrained_embeddings(vocab: Vocab, radtable: RadicalTable, cfg: EmbeddingConfig,
                         rng: np.random.Generator) -> EmbeddingSet:
    """The char vectors, then the N_RADICAL_ROWS radical vectors, drawn from rng."""
    return EmbeddingSet(char_vectors=_uniform(rng, vocab.size, cfg.d_char),
                        radical_vectors=_uniform(rng, N_RADICAL_ROWS, cfg.d_radical),
                        vocab=vocab, radtable=radtable, config=cfg)


def new_cbow_model(vocab: Vocab, radtable: RadicalTable, cfg: EmbeddingConfig) -> tuple:
    """(embeddings, projection): the untrained embeddings, then the
    (|V|, 2N * (d_char + d_radical)) projection, from one generator seeded cfg.seed."""
    rng = make_rng(cfg.seed)
    emb = untrained_embeddings(vocab, radtable, cfg, rng)
    return emb, _uniform(rng, vocab.size, 2 * cfg.window * cfg.d_total)


def _context_rows(encoded: EncodedUnit, window: int) -> tuple:
    """(n, 2N) char and radical rows of every center's context slots in order;
    the center is excluded and slots outside the unit take the PAD and
    NO_RADICAL rows."""
    n = len(encoded)
    pos = np.arange(n)[:, None] + np.r_[-window:0, 1:window + 1]
    inside = (pos >= 0) & (pos < n)
    pos[~inside] = 0
    return (np.where(inside, encoded.char_ids[pos], Vocab.PAD),
            np.where(inside, encoded.rad_ids[pos], NO_RADICAL))


def cbow_loss_and_grads(emb: EmbeddingSet, projection: np.ndarray, chars: np.ndarray,
                        rads: np.ndarray, target: int) -> tuple:
    """Forward plus hand-derived backward at one center, from the (2N,) char
    and radical rows of its context (a row of _context_rows) and its char
    row target; writes nothing. Returns (loss, dlogits, h, dh).

    h concatenates (char vector, radical vector) over the slots in order,
    and the projection's gradient is outer(dlogits, h). dh, shaped
    (2N, d_char + d_radical), holds each slot's gradient: its first d_char
    columns belong to the slot's char row and the rest to its radical row."""
    h = np.hstack([emb.char_vectors[chars], emb.radical_vectors[rads]]).reshape(-1)
    logits = projection @ h
    logits -= logits.max()
    exp = np.exp(logits)
    dlogits = exp / exp.sum()  # the softmax, until the target's one-hot is taken off
    loss = -float(np.log(dlogits[target]))
    dlogits[target] -= 1.0
    dh = (projection.T @ dlogits).reshape(len(chars), -1)
    return loss, dlogits, h, dh


def train_embeddings(units: list, radtable: RadicalTable, cfg: EmbeddingConfig,
                     vocab: Vocab, progress=None) -> EmbeddingSet:
    """Pretrain on a list of units over vocab and return the embeddings.

    Plain per-pair SGD over every (unit, center) position, in corpus order,
    for cfg.epochs epochs. Context windows never cross unit boundaries. A step
    changes only the 2N context rows of the char and radical matrices: it sums
    their slot gradients into a zeroed scratch array made once per call,
    applies them at those rows and zeroes them there again. The projection
    takes -lr * outer(dlogits, h) in cache-sized row blocks. The model keeps
    no gradient buffers, and the values are those of the dense update
    `value -= lr * grad` over all three matrices. Raises NumericError at the
    first non-finite loss, or if the returned vectors are not finite.
    """
    if not units:
        raise ValueError("cannot train embeddings on an empty corpus")
    emb, projection = new_cbow_model(vocab, radtable, cfg)
    encoded = [encode_chars(u.seq.chars, vocab, radtable) for u in units]
    lr, d_c = cfg.learning_rate, cfg.d_char
    # (matrix, its scratch gradient, its columns of dh)
    sparse = ((emb.char_vectors, np.zeros_like(emb.char_vectors), np.s_[:, :d_c]),
              (emb.radical_vectors, np.zeros_like(emb.radical_vectors), np.s_[:, d_c:]))
    for epoch in range(cfg.epochs):
        total, count = 0.0, 0
        # every loss is checked, so numpy's overflow warnings would only repeat it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for unit, enc in enumerate(encoded):
                for center, rows in enumerate(zip(*_context_rows(enc, cfg.window))):
                    loss, dlogits, h, dh = cbow_loss_and_grads(emb, projection, *rows,
                                                               enc.char_ids[center])
                    if not math.isfinite(loss):
                        raise NumericError(f"CBOW loss is {loss} at epoch {epoch + 1}, "
                                           f"unit {unit}, position {center}; "
                                           f"try a learning rate below {lr}")
                    total += loss
                    count += 1
                    add_outer(projection, dlogits, h, -lr)
                    for (M, G, cols), slots in zip(sparse, rows):
                        # add.at sums a row repeated across slots in slot order
                        np.add.at(G, slots, dh[cols])
                        M[slots] -= lr * G[slots]
                        G[slots] = 0.0
        mean = total / max(1, count)
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
                          [("emb.char_vectors", emb.char_vectors),
                           ("emb.radical_vectors", emb.radical_vectors)])


def take_embeddings(c: binio.Container, radtable: RadicalTable,
                    window: int = EmbeddingConfig.window) -> EmbeddingSet:
    """The two embedding sections of a container (embedding file or checkpoint),
    as read-only views of the file's bytes."""
    char_vectors = c.take("emb.char_vectors", (c.vocab.size, None))
    radical_vectors = c.take("emb.radical_vectors", (N_RADICAL_ROWS, None))
    try:
        cfg = EmbeddingConfig(d_char=char_vectors.shape[1],
                              d_radical=radical_vectors.shape[1], window=window)
    except ValueError as e:
        raise binio.FormatError(str(e)) from None
    return EmbeddingSet(char_vectors=char_vectors, radical_vectors=radical_vectors,
                        vocab=c.vocab, radtable=radtable, config=cfg)


def load_embeddings(path, radtable: RadicalTable = None) -> EmbeddingSet:
    """An embedding file, with the bundled radical table unless one is given."""
    if radtable is None:
        radtable = default_table()
    c = binio.read_container(path, MAGIC, VERSION, int)
    emb = take_embeddings(c, radtable, window=c.field)
    c.done()
    return emb
