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

Training is minibatch SGD over BATCH consecutive centers of the corpus stream
(HogBatch, Ji et al., arXiv 1604.04661): one step gathers their contexts, runs
one logits GEMM and one context-gradient GEMM against the (|V|, 2N * d)
projection and writes it once, so that one pass over it serves BATCH centers
instead of one. The gradients are summed over the batch, not averaged, so each
center's step is still lr. The projection and its products are float32, the
rest float64.
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
# Centers per SGD step, the rate at which the projection is written. At |V|
# about 3000 (dims 70+30, window 2, one BLAS thread, 2-vCPU Xeon), 16 gave 2.4
# to 2.8 times the positions/s of per-position steps whose projection updates
# waited to be applied 16 at a time.
BATCH = 16
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


def _context_rows(encoded: EncodedUnit, offsets: np.ndarray, start: int, stop: int,
                  window: int) -> tuple:
    """(stop - start, 2N) char and radical rows of the context slots of the
    centers at stream positions start:stop of encoded, in order, each masked to
    its own unit of offsets: the center is excluded and slots outside its unit
    take the PAD and NO_RADICAL rows."""
    centers = np.arange(start, stop)
    unit = np.searchsorted(offsets, centers, side="right") - 1
    pos = centers[:, None] + np.r_[-window:0, 1:window + 1]
    inside = (pos >= offsets[unit, None]) & (pos < offsets[unit + 1, None])
    pos[~inside] = 0
    return (np.where(inside, encoded.char_ids[pos], Vocab.PAD),
            np.where(inside, encoded.rad_ids[pos], NO_RADICAL))


def cbow_loss_and_grads(emb: EmbeddingSet, projection: np.ndarray, chars: np.ndarray,
                        rads: np.ndarray, target) -> tuple:
    """Forward plus hand-derived backward at B centers, from the (B, 2N) char
    and radical rows of their contexts (rows of _context_rows) and their (B,)
    char row targets; writes nothing. Returns (losses, dlogits, h, dh).

    h, (B, 2N * d), concatenates (char vector, radical vector) over the slots
    in order, and the projection's gradient is dlogits.T @ h, summed over the
    centers; both are in the projection's dtype, as its two products are. dh,
    float64 and shaped (B, 2N, d_char + d_radical), holds each slot's
    gradient: its first d_char columns belong to the slot's char row and the
    rest to its radical row. The softmax and the float64 losses run in place
    in one (B, |V|) buffer. One center, given as (2N,) rows and an int target,
    gives a float loss and each array without its batch axis."""
    one = np.ndim(target) == 0
    chars, rads, target = np.atleast_2d(chars), np.atleast_2d(rads), np.atleast_1d(target)
    h = np.concatenate([emb.char_vectors[chars], emb.radical_vectors[rads]], axis=2)
    h = h.reshape(len(target), -1).astype(projection.dtype, copy=False)
    # the projection on the left: about half the time of h @ projection.T, same bits
    probs = (projection @ h.T).T.astype(np.float64, order="C")
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    rows = np.arange(len(target))
    losses = -np.log(probs[rows, target])
    probs[rows, target] -= 1.0  # dlogits: the softmax less the targets' one-hots
    dlogits = probs.astype(projection.dtype, copy=False)
    dh = (dlogits @ projection).astype(np.float64, copy=False).reshape(*chars.shape, -1)
    if one:
        return float(losses[0]), dlogits[0], h[0], dh[0]
    return losses, dlogits, h, dh


def train_embeddings(units: list, radtable: RadicalTable, cfg: EmbeddingConfig,
                     vocab: Vocab, progress=None) -> EmbeddingSet:
    """Pretrain on a list of units over vocab and return the embeddings.

    Minibatch SGD for cfg.epochs epochs over the units encoded once, as one
    stream: each step takes the next BATCH centers of the stream, a batch
    that may cross unit joins (the last of an epoch may be shorter), though a
    context never does. A step builds its centers' context rows, gets their
    summed gradients from one cbow_loss_and_grads call and applies them: the
    projection's with add_low_rank, a rank-B update in cache-sized row blocks,
    and the char and radical rows' by summing all B * 2N slot gradients with
    one np.add.at into a zeroed scratch array made once per call, applying
    them at those rows and zeroing them there again.

    One generator seeded cfg.seed draws the untrained embeddings, then the
    (|V|, 2N * d) float32 projection. The iterates are those of the dense
    update `value -= lr * grad` over all three matrices, grad summed over the
    batch, bit for bit. The model keeps no gradient buffers. Raises
    NumericError at the first batch with a non-finite loss, naming its first
    such position and applying none of its update, or if the returned vectors
    are not finite.
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
    n = int(offsets[-1])
    lr, d_c = float(cfg.learning_rate), cfg.d_char  # a numpy rate would promote to float64
    # (matrix, its scratch gradient, its columns of dh)
    sparse = ((emb.char_vectors, np.zeros_like(emb.char_vectors), np.s_[:, :d_c]),
              (emb.radical_vectors, np.zeros_like(emb.radical_vectors), np.s_[:, d_c:]))
    for epoch in range(cfg.epochs):
        total = 0.0
        # every loss is checked, so numpy's overflow warnings would only repeat it
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for start in range(0, n, BATCH):
                stop = min(start + BATCH, n)
                rows = _context_rows(encoded, offsets, start, stop, cfg.window)
                losses, dlogits, h, dh = cbow_loss_and_grads(
                    emb, projection, *rows, encoded.char_ids[start:stop])
                if not np.isfinite(losses).all():
                    first = int(np.argmin(np.isfinite(losses)))
                    unit = int(np.searchsorted(offsets, start + first, side="right")) - 1
                    raise NumericError(f"CBOW loss is {losses[first]} at epoch {epoch + 1}, "
                                       f"unit {unit}, position {start + first - offsets[unit]}; "
                                       f"try a learning rate below {lr}")
                total += float(losses.sum())
                add_low_rank(projection, dlogits, h, -lr)
                dh = dh.reshape(-1, cfg.d_total)
                for (M, grad, cols), slots in zip(sparse, rows):
                    slots = slots.reshape(-1)
                    # add.at sums a row repeated across slots in slot order
                    np.add.at(grad, slots, dh[cols])
                    M[slots] -= lr * grad[slots]
                    grad[slots] = 0.0
        if progress is not None:
            progress(epoch, total / n)
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
