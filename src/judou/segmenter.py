"""The full tagger: embeddings -> BiLSTM -> emission projection -> CRF.

Training fine-tunes the pretrained embeddings together with the network
(freezing them is available as an option), selects the best epoch by
validation F1, and restores those parameters at the end. Evaluation scores
sentence boundaries (positions after each E tag), never the tags themselves.
The weights are float64. The BiLSTM and emission passes run in float32, each
layer casting the weights it reads (mixed precision, Micikevicius et al.,
arXiv 1710.03740), and the CRF, the gradients and the SGD step in float64.
"""

from dataclasses import dataclass

import numpy as np

from . import binio
from .corpus import (DEFAULT_PUNCT, STOP, CorpusSplits, LabeledSequence, TAG_CHARS, TAG_E,
                     TAG_TO_ID, UNIT_SIZE, Vocab, check_units, normalize_text, tags_to_text)
from .crf import N_TAGS, crf_nll, viterbi_decode
from .embedding import EMBEDDING_NAMES, EmbeddingSet, embedding_shapes, encode_chars, encode_units
from .lstm import (bilstm_backward_batch, bilstm_forward_batch, lstm_shapes,
                   new_bilstm_weights)
from .nncore import (NumericError, check_int, check_real, check_type, dropout_mask,
                     glorot_uniform, make_rng, sgd_step)
from .radicals import RadicalTable, default_table

MAGIC = b"GJSEG01\n"
VERSION = 6
# units decoded in one forward pass at most: the paper's minibatch size, which
# bounds the arrays one decode pass holds
DECODE_BATCH = 50


@dataclass
class Hyperparams:
    embed_dim: int = 100
    hidden: int = 100
    batch: int = 50
    epochs: int = 30
    learning_rate: float = 0.01
    clip_norm: float = 5.0
    dropout: float = 0.5

    def __post_init__(self):
        for name, low in (("embed_dim", 1), ("hidden", 1), ("batch", 1), ("epochs", 0)):
            check_int(name, getattr(self, name), low)
        for name in ("learning_rate", "clip_norm", "dropout"):
            check_real(name, getattr(self, name))
        if not 0 <= self.learning_rate < np.inf or not self.clip_norm > 0:
            raise ValueError(f"bad optimization settings: {self}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1): {self.dropout}")


@dataclass
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "EvalReport":
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(tp=tp, fp=fp, fn=fn, precision=p, recall=r, f1=f1)


@dataclass
class EpochRecord:
    mean_loss: float
    val_report: EvalReport
    clip_rate: float  # share of the epoch's SGD steps whose gradients were clipped


@dataclass
class TrainLog:
    epochs: list
    best_epoch: int | None


@dataclass
class SegmenterModel:
    """The tagger's vocabulary, radical table and weights. weights holds
    every array, 2-D and float64, by its checkpoint section name, in the
    order train() steps and save_model() writes them: EMBEDDING_NAMES, the
    BiLSTM's ten (lstm.py), emit.W (2H, 3), emit.b (1, 3) and crf.trans
    (5, 5), the CRF transitions with START and STOP included."""

    vocab: Vocab
    radtable: RadicalTable
    weights: dict

    @property
    def use_radicals(self) -> bool:
        """False for a char-only model, whose BiLSTM reads d_char inputs."""
        return self.weights["fwd.W_x"].shape[0] != self.weights["emb.char_vectors"].shape[1]


def build_model(embeddings: EmbeddingSet, hidden: int = 100, seed: int = 0,
                use_radicals: bool = True) -> SegmenterModel:
    """A fresh tagger over its own copy of the embedding arrays; training the
    model leaves the caller's EmbeddingSet as it was."""
    check_type("embeddings", embeddings, EmbeddingSet)
    check_int("hidden", hidden, 1)
    rng = make_rng(seed)
    d_in = embeddings.d_char + (embeddings.d_radical if use_radicals else 0)
    weights = {"emb.char_vectors": np.array(embeddings.char_vectors, dtype=np.float64),
               "emb.radical_vectors": np.array(embeddings.radical_vectors, dtype=np.float64),
               **new_bilstm_weights(d_in, hidden, rng),
               "emit.W": glorot_uniform((2 * hidden, N_TAGS), rng),
               "emit.b": np.zeros((1, N_TAGS)),
               "crf.trans": np.zeros((N_TAGS + 2, N_TAGS + 2))}
    return SegmenterModel(vocab=embeddings.vocab, radtable=embeddings.radtable, weights=weights)


# ---------------------------------------------------------------------------
# forward / backward over a batch of equal-length units

def _forward_batch(model: SegmenterModel, char_ids: np.ndarray, rad_ids: np.ndarray,
                   rng=None, dropout: float = 0.0, dtype=np.float64):
    """Emissions (B, n, 3) in dtype, and the cache. Each layer casts the weights
    it reads to dtype, the BiLSTM its own; rows are cast after the gather, and
    the masks are made in dtype (a float64 mask would upcast the pass)."""
    w = model.weights
    X = w["emb.char_vectors"][char_ids]
    if model.use_radicals:
        X = np.concatenate([X, w["emb.radical_vectors"][rad_ids]], axis=2)
    X = X.astype(dtype, copy=False)
    in_mask = out_mask = None
    if dropout > 0:
        in_mask = dropout_mask(X.shape, dropout, rng, dtype)
        X = X * in_mask
    H2, lstm_cache = bilstm_forward_batch(w, X)
    if dropout > 0:
        out_mask = dropout_mask(H2.shape, dropout, rng, dtype)
        H2 = H2 * out_mask
    P = (np.tensordot(H2, w["emit.W"].astype(dtype, copy=False), axes=([2], [0]))
         + w["emit.b"].astype(dtype, copy=False))
    cache = {"char_ids": char_ids, "rad_ids": rad_ids, "in_mask": in_mask,
             "out_mask": out_mask, "H2": H2, "lstm_cache": lstm_cache}
    return P, cache


def _backward_batch(model: SegmenterModel, grads: dict, cache: dict, dP: np.ndarray) -> None:
    """Add into grads the gradients of the weights below the CRF; without the
    embedding names in grads (frozen embeddings) the input gradient is not
    scattered into them. Consumes the cache: H2 and the output mask are freed
    before the BiLSTM's backward pass allocates its own temporaries. The pass
    runs in dP's dtype, each layer casting the weights it reads to it, and
    grads may be wider."""
    w = model.weights
    two_h = w["emit.W"].shape[0]
    grads["emit.W"] += cache.pop("H2").reshape(-1, two_h).T @ dP.reshape(-1, N_TAGS)
    grads["emit.b"] += dP.sum(axis=(0, 1))
    dH2 = np.tensordot(dP, w["emit.W"].astype(dP.dtype, copy=False).T, axes=([2], [0]))
    if cache["out_mask"] is not None:
        dH2 *= cache.pop("out_mask")
    dX = bilstm_backward_batch(w, grads, cache["lstm_cache"], dH2)
    if "emb.char_vectors" not in grads:
        return
    if cache["in_mask"] is not None:
        dX *= cache["in_mask"]
    # in the gradients' dtype, np.add.at keeps its fast path
    dX = dX.astype(grads["emb.char_vectors"].dtype, copy=False)
    d_c = w["emb.char_vectors"].shape[1]
    np.add.at(grads["emb.char_vectors"], cache["char_ids"], dX[:, :, :d_c])
    if model.use_radicals:
        np.add.at(grads["emb.radical_vectors"], cache["rad_ids"], dX[:, :, d_c:])


# ---------------------------------------------------------------------------
# training / evaluation / segmentation

def _length_groups(offsets, idxs):
    """Yield a (B, n) array of the stream positions of units idxs for each
    distinct length n, in order of first appearance; its rows index the
    stream's char ids, radical ids, gold tags and decoded tags alike."""
    by_len: dict = {}
    for i in idxs:
        by_len.setdefault(offsets[i + 1] - offsets[i], []).append(offsets[i])
    for n, starts in by_len.items():
        yield np.add.outer(starts, np.arange(n))


def _decode(model: SegmenterModel, encoded, offsets) -> np.ndarray:
    """Viterbi tag ids of an encoded stream's non-empty units (encoded and offsets as
    from encode_units) as one flat array, from forward passes over equal-length
    units, at most DECODE_BATCH units per pass. Each is training's forward
    pass without dropout; its LSTM cache is dropped unread.

    The passes run in float32, each layer casting the weights it reads
    (_forward_batch), and the CRF decodes the float32 emissions in float64
    with the float64 transitions. model.weights is only read, and nothing
    read from it outlives the call."""
    trans = model.weights["crf.trans"]
    if not np.isfinite(trans).all():
        raise NumericError("non-finite CRF transition scores")
    tags = np.empty(offsets[-1], dtype=np.intp)
    for rows in _length_groups(offsets, range(len(offsets) - 1)):
        for start in range(0, len(rows), DECODE_BATCH):
            part = rows[start:start + DECODE_BATCH]
            P = _forward_batch(model, encoded.char_ids[part], encoded.rad_ids[part],
                               dtype=np.float32)[0]
            # a NaN weight, or one beyond float32's range, would decode as no boundary
            if not np.isfinite(P).all():
                raise NumericError("non-finite emission scores: a weight is NaN or infinite, "
                                   "or too large for float32")
            tags[part] = viterbi_decode(P, trans)
    return tags


def train(model: SegmenterModel, splits, hp: Hyperparams, seed: int = 0,
          freeze_embeddings: bool = False, progress=None) -> TrainLog:
    """Minibatch SGD on the mean sequence NLL; returns the per-epoch log.
    progress, if given, is called as progress(epoch, record) after each epoch.

    The model ends up with the parameters of the epoch with the best
    validation F1 (earliest on ties). With no validation units there is
    nothing to select by, and the last epoch's parameters stand.

    The units are encoded once, as one stream (encode_units); each pass's
    rows from _length_groups index its ids and the one flat gold array.

    Mixed precision: each pass runs its BiLSTM and emission in float32, each
    layer casting the float64 weights it reads (_forward_batch). The CRF
    takes the float32 emissions and works in float64, and the passes'
    float32 gradient products are added into float64 gradients, so clipping,
    the SGD step and model.weights (the same arrays throughout) stay
    float64. A step that leaves a weight beyond float32's range stops
    training with a NumericError (sgd_step).
    """
    check_type("model", model, SegmenterModel)
    check_type("splits", splits, CorpusSplits)
    check_type("hp", hp, Hyperparams)
    check_units("splits.train", splits.train)
    check_units("splits.valid", splits.valid)
    if not splits.train:
        raise ValueError("training split is empty")
    rng = make_rng(seed)
    weights = model.weights
    # zeroed gradients of the trained weights, in weight order; sgd_step
    # zeroes them again after each step
    grads = {name: np.zeros_like(w) for name, w in weights.items()
             if not (freeze_embeddings and name in EMBEDDING_NAMES)}
    encoded, offsets = encode_units(splits.train, model.vocab, model.radtable)
    gold = np.array([TAG_TO_ID[t] for u in splits.train for t in u.seq.tags], dtype=np.intp)

    records = []
    best_f1 = -1.0
    best_epoch = None
    best_values = None
    for epoch in range(hp.epochs):
        order = rng.permutation(len(splits.train))
        total_loss = 0.0
        clipped = 0
        steps = range(0, len(order), hp.batch)
        for start in steps:
            batch = order[start:start + hp.batch]
            n_batch = len(batch)
            for rows in _length_groups(offsets, batch):
                P, cache = _forward_batch(model, encoded.char_ids[rows], encoded.rad_ids[rows],
                                          rng, hp.dropout, dtype=np.float32)
                loss, dP, dA = crf_nll(P, weights["crf.trans"], gold[rows])
                total_loss += loss.sum()
                grads["crf.trans"] += dA / n_batch
                _backward_batch(model, grads, cache, (dP / n_batch).astype(P.dtype))
                del P, cache  # free the LSTM cache before the next pass allocates one
            # lr 0 is a null update: value -= 0.0 * grad leaves the values as they are
            clipped += sgd_step(weights, grads, hp.learning_rate, hp.clip_norm) < 1.0
        mean_loss = total_loss / len(splits.train)
        val_report = evaluate(model, splits.valid)
        records.append(EpochRecord(mean_loss=mean_loss, val_report=val_report,
                                   clip_rate=clipped / len(steps)))
        if progress is not None:
            progress(epoch, records[-1])
        if not splits.valid:
            best_epoch = epoch
        elif val_report.f1 > best_f1:
            best_f1 = val_report.f1
            best_epoch = epoch
            best_values = {name: w.copy() for name, w in weights.items()}
    if best_values is not None:
        for name, v in best_values.items():
            weights[name][...] = v
    return TrainLog(epochs=records, best_epoch=best_epoch)


def evaluate(model: SegmenterModel, units: list) -> EvalReport:
    """Boundary-level precision/recall/F1 over gold-tagged units: predicted
    and gold E tags compared position by position over the units' stream."""
    check_type("model", model, SegmenterModel)
    check_units("units", units)
    pred = _decode(model, *encode_units(units, model.vocab, model.radtable)) == TAG_E
    gold = np.array([t == TAG_CHARS[TAG_E] for u in units for t in u.seq.tags], dtype=bool)
    return EvalReport.from_counts(int((pred & gold).sum()), int((pred & ~gold).sum()),
                                  int((gold & ~pred).sum()))


def segment(model: SegmenterModel, raw: str, separator: str = "/") -> str:
    """Segment raw text: normalize (dropping any existing stops), encode it
    once, decode it in units of UNIT_SIZE positions, and reinsert boundaries
    after predicted E tags."""
    check_type("model", model, SegmenterModel)
    check_type("raw", raw, str)
    if not isinstance(separator, str) or not separator:
        raise ValueError(f"separator must be a non-empty str, got {separator!r}")
    chars = DEFAULT_PUNCT.compile(STOP).sub("", normalize_text(raw))
    offsets = [*range(0, len(chars), UNIT_SIZE), len(chars)]
    tags = _decode(model, encode_chars(chars, model.vocab, model.radtable), offsets).tolist()
    # reconstruct over the whole stream so boundaries at unit joins survive
    return tags_to_text(LabeledSequence(chars, "".join(TAG_CHARS[t] for t in tags)), separator)


# ---------------------------------------------------------------------------
# checkpoints

def save_model(model: SegmenterModel, path) -> None:
    binio.write_container(path, MAGIC, VERSION, model.radtable.sha256, model.vocab,
                          model.weights.items())


def load_model(path, radtable: RadicalTable = None) -> SegmenterModel:
    """Rebuild a model from a checkpoint, verifying the radical table hash:
    its weights are the owned, range-checked sections from take_all, and
    nothing is drawn or allocated besides. The model is char-only when fwd.W_x
    has d_char rows, not d_char + d_radical."""
    if radtable is None:
        radtable = default_table()
    c = binio.read_container(path, MAGIC, VERSION, str)
    if c.field != radtable.sha256:
        raise binio.FormatError(f"radical table hash mismatch: checkpoint has {c.field[:12]!r}")
    d_in, hidden = c.shape("fwd.W_x")[0], c.shape("fwd.W_h")[0]
    d_char, d_radical = (c.shape(name)[1] for name in EMBEDDING_NAMES)
    if d_in not in (d_char, d_char + d_radical) or min(d_char, d_radical, hidden) < 1:
        raise binio.FormatError(f"fwd.W_x rows {d_in} and hidden size {hidden} do not fit "
                                f"embeddings of {d_char}+{d_radical} dims")
    shapes = (embedding_shapes(c.vocab.size, d_char, d_radical)
              | lstm_shapes(d_in, hidden, "fwd") | lstm_shapes(d_in, hidden, "bwd")
              | {"emit.W": (2 * hidden, N_TAGS), "emit.b": (1, N_TAGS),
                 "crf.trans": (N_TAGS + 2, N_TAGS + 2)})
    return SegmenterModel(vocab=c.vocab, radtable=radtable, weights=c.take_all(shapes))
