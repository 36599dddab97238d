"""The full tagger: embeddings -> BiLSTM -> emission projection -> CRF.

Training fine-tunes the pretrained embeddings together with the network
(freezing them is available as an option), selects the best epoch by
validation F1, and restores those parameters at the end. Evaluation scores
sentence boundaries (positions after each E tag), never the tags themselves.
The weights are float64. Training and decoding run the BiLSTM and emission
projection in float32 against them (mixed precision, Micikevicius et al.,
arXiv 1710.03740), and the CRF, the gradients and the SGD step in float64.
"""

from dataclasses import dataclass

import numpy as np

from . import binio
from .corpus import (DEFAULT_PUNCT, STOP, CorpusSplits, LabeledSequence, TAG_CHARS, TAG_E,
                     TAG_TO_ID, UNIT_SIZE, Vocab, boundary_positions, check_units,
                     normalize_text, tags_to_text)
from .crf import N_TAGS, crf_nll, new_transitions, viterbi_decode
from .embedding import EMBEDDING_NAMES, EmbeddingSet, embedding_shapes, encode_chars
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
               "crf.trans": new_transitions()}
    return SegmenterModel(vocab=embeddings.vocab, radtable=embeddings.radtable, weights=weights)


# ---------------------------------------------------------------------------
# forward / backward over a batch of equal-length units

def _forward_batch(model: SegmenterModel, char_ids: np.ndarray, rad_ids: np.ndarray,
                   rng=None, dropout: float = 0.0):
    w = model.weights
    X = w["emb.char_vectors"][char_ids]
    if model.use_radicals:
        X = np.concatenate([X, w["emb.radical_vectors"][rad_ids]], axis=2)
    # the pass runs in the emission's dtype, the BiLSTM casting its own weights
    # to it; the rows are cast after the gather, the masks after their float64
    # draw (a float64 mask would upcast the pass)
    X = X.astype(w["emit.W"].dtype, copy=False)
    in_mask = out_mask = None
    if dropout > 0:
        in_mask = dropout_mask(X.shape, dropout, rng).astype(X.dtype, copy=False)
        X = X * in_mask
    H2, lstm_cache = bilstm_forward_batch(w, X)
    if dropout > 0:
        out_mask = dropout_mask(H2.shape, dropout, rng).astype(H2.dtype, copy=False)
        H2 = H2 * out_mask
    P = np.tensordot(H2, w["emit.W"], axes=([2], [0])) + w["emit.b"]
    cache = {"char_ids": char_ids, "rad_ids": rad_ids, "in_mask": in_mask,
             "out_mask": out_mask, "H2": H2, "lstm_cache": lstm_cache}
    return P, cache


def _backward_batch(model: SegmenterModel, grads: dict, cache: dict, dP: np.ndarray) -> None:
    """Add into grads the gradients of the weights below the CRF; without the
    embedding names in grads (frozen embeddings) the input gradient is not
    scattered into them. Consumes the cache: H2 and the output mask are freed
    before the BiLSTM's backward pass allocates its own temporaries. The pass
    runs in the dtype of the emission weights and dP, and grads may be
    wider."""
    w = model.weights
    two_h = w["emit.W"].shape[0]
    grads["emit.W"] += cache.pop("H2").reshape(-1, two_h).T @ dP.reshape(-1, N_TAGS)
    grads["emit.b"] += dP.sum(axis=(0, 1))
    dH2 = np.tensordot(dP, w["emit.W"].T, axes=([2], [0]))
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

def _encode_units(model: SegmenterModel, units: list) -> list:
    return [encode_chars(u.seq.chars, model.vocab, model.radtable) for u in units]


def _length_groups(encoded: list, idxs):
    """Yield (indices, char_ids, rad_ids) for each distinct length among
    encoded[i], i in idxs, in order of first appearance; the id arrays stack
    the group's units to (B, n)."""
    by_len: dict = {}
    for i in idxs:
        by_len.setdefault(len(encoded[i]), []).append(i)
    for group in by_len.values():
        yield (group, np.stack([encoded[i].char_ids for i in group]),
               np.stack([encoded[i].rad_ids for i in group]))


def _float32_passes(model: SegmenterModel) -> SegmenterModel:
    """The model the float32 passes run on: float32 copies of the emission
    weights, with every other array shared, in float64, with model. The
    BiLSTM passes make their own float32 copies of its ten arrays: the
    forward pass a half-scale one per call, the backward pass a full-scale
    one (lstm.py)."""
    return SegmenterModel(model.vocab, model.radtable, {
        name: w.astype(np.float32) if name.startswith("emit.") else w
        for name, w in model.weights.items()})


def _decode(model: SegmenterModel, encoded: list) -> list:
    """Viterbi tag ids (one array per unit) from forward passes over
    equal-length units, at most DECODE_BATCH units per pass. Each is
    training's forward pass without dropout; its LSTM cache is dropped
    unread.

    The passes run on _float32_passes(model), made once per call, each
    BiLSTM pass making its own float32 copy of the ten arrays; the embedding
    rows are cast after the gather, and the CRF decodes the float32
    emissions in float64 with the float64 transitions. model.weights is only
    read."""
    if any(len(e) == 0 for e in encoded):
        raise ValueError("cannot run the model on an empty unit")
    trans = model.weights["crf.trans"]
    if not np.isfinite(trans).all():
        raise NumericError("non-finite CRF transition scores")
    decoder = _float32_passes(model)
    tags = {}
    for idxs, char_ids, rad_ids in _length_groups(encoded, range(len(encoded))):
        for start in range(0, len(idxs), DECODE_BATCH):
            part = slice(start, start + DECODE_BATCH)
            P = _forward_batch(decoder, char_ids[part], rad_ids[part])[0]
            # a NaN weight, or one beyond float32's range, would decode as no boundary
            if not np.isfinite(P).all():
                raise NumericError("non-finite emission scores: a weight is NaN or infinite, "
                                   "or too large for float32")
            tags.update(zip(idxs[part], viterbi_decode(P, trans)))
    return [tags[i] for i in range(len(encoded))]


def train(model: SegmenterModel, splits, hp: Hyperparams, seed: int = 0,
          freeze_embeddings: bool = False, progress=None) -> TrainLog:
    """Minibatch SGD on the mean sequence NLL; returns the per-epoch log.
    progress, if given, is called as progress(epoch, record) after each epoch.

    The model ends up with the parameters of the epoch with the best
    validation F1 (earliest on ties). With no validation units there is
    nothing to select by, and the last epoch's parameters stand.

    Mixed precision: each minibatch runs its BiLSTM and emission passes in
    float32 on copies made after the previous step: _float32_passes(model)
    for the emission, and each BiLSTM pass's own copy of the ten arrays. The
    CRF takes the float32 emissions and works in float64, and the passes'
    float32 gradient products are added into float64 gradients, so clipping,
    the SGD step and model.weights (the same arrays throughout) stay
    float64.
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
    encoded = _encode_units(model, splits.train)
    golds = [np.array([TAG_TO_ID[t] for t in u.seq.tags], dtype=np.intp) for u in splits.train]

    records = []
    best_f1 = -1.0
    best_epoch = None
    best_values = None
    for epoch in range(hp.epochs):
        order = rng.permutation(len(encoded))
        total_loss = 0.0
        clipped = 0
        steps = range(0, len(order), hp.batch)
        for start in steps:
            batch = order[start:start + hp.batch]
            n_batch = len(batch)
            passes = _float32_passes(model)
            for idxs, char_ids, rad_ids in _length_groups(encoded, batch):
                P, cache = _forward_batch(passes, char_ids, rad_ids, rng, hp.dropout)
                loss, dP, dA = crf_nll(P, weights["crf.trans"], np.stack([golds[i] for i in idxs]))
                total_loss += loss.sum()
                grads["crf.trans"] += dA / n_batch
                _backward_batch(passes, grads, cache, (dP / n_batch).astype(P.dtype))
                del P, cache  # free the LSTM cache before the next pass allocates one
            # lr 0 is a null update: value -= 0.0 * grad leaves the values as they are
            clipped += sgd_step(weights, grads, hp.learning_rate, hp.clip_norm) < 1.0
        mean_loss = total_loss / len(encoded)
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
    """Boundary-level precision/recall/F1 over gold-tagged units."""
    check_type("model", model, SegmenterModel)
    check_units("units", units)
    tp = fp = fn = 0
    for unit, tags in zip(units, _decode(model, _encode_units(model, units))):
        gold = boundary_positions(unit.seq.tags)
        pred = {i + 1 for i, t in enumerate(tags) if t == TAG_E}
        tp += len(gold & pred)
        fp += len(pred - gold)
        fn += len(gold - pred)
    return EvalReport.from_counts(tp, fp, fn)


def segment(model: SegmenterModel, raw: str, separator: str = "/") -> str:
    """Segment raw text: normalize (dropping any existing stops), decode
    UNIT_SIZE-character units, and reinsert boundaries after predicted E tags."""
    check_type("model", model, SegmenterModel)
    check_type("raw", raw, str)
    if not isinstance(separator, str) or not separator:
        raise ValueError(f"separator must be a non-empty str, got {separator!r}")
    chars = DEFAULT_PUNCT.compile(STOP).sub("", normalize_text(raw))
    units = [encode_chars(chars[start:start + UNIT_SIZE], model.vocab, model.radtable)
             for start in range(0, len(chars), UNIT_SIZE)]
    tags = "".join(TAG_CHARS[t] for unit_tags in _decode(model, units) for t in unit_tags)
    # reconstruct over the whole stream so boundaries at unit joins survive
    return tags_to_text(LabeledSequence(chars, tags), separator)


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
