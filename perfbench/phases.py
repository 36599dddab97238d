"""The three phases a run measures, each a set-up plus a repeatable round.

A round is one deterministic piece of work through judou's public API, the
functions the CLI calls: `train` + `evaluate`, `segment` over every
document, or `train_embeddings`. Repeating a round repeats its numerics
exactly, so every round of a run must report the same losses; a round whose
outputs fail a check counts a failed operation.
"""

import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import inputs

import judou
from judou.corpus import DEFAULT_PUNCT, boundary_positions, build_vocab, normalize_text
from judou.embedding import EmbeddingConfig, EmbeddingSet, train_embeddings
from judou.radicals import load_radical_table
from judou.segmenter import (Hyperparams, build_model, evaluate, load_model,
                             save_model, segment, train)
from judou.synthetic import random_embeddings

TABLE_PATH = Path(judou.__file__).parent / "data" / "kangxi_radicals.tsv"
SEPARATOR = "/"

# the paper's settings; one epoch keeps a round a few seconds long
HP = Hyperparams(embed_dim=100, hidden=100, batch=50, epochs=1,
                 learning_rate=0.01, clip_norm=5.0, dropout=0.5)
D_CHAR, D_RADICAL = 70, 30
CBOW = EmbeddingConfig(d_char=D_CHAR, d_radical=D_RADICAL, window=2, epochs=1, seed=0)
# evaluate() over the test split takes about a third of train(); repeating
# it gives eval_chars_per_s about as many timed seconds as train_chars_per_s
EVAL_REPEATS = 3


class Api:
    """The top-level calls a round makes; a tracer wraps each in a span."""

    CALLS = {
        "train": ("segmenter.train", train),
        "evaluate": ("segmenter.evaluate", evaluate),
        "segment": ("segmenter.segment", segment),
        "load_model": ("segmenter.load_model", load_model),
        "train_embeddings": ("embedding.train_embeddings", train_embeddings),
        "load_radical_table": ("radicals.load_radical_table", load_radical_table),
    }

    def __init__(self, tracer=None):
        for attr, (span_name, fn) in self.CALLS.items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(span_name, fn))


def fresh_copy(emb: EmbeddingSet) -> EmbeddingSet:
    """New arrays, shared vocabulary: build_model keeps the arrays it is given
    and training writes to them."""
    return EmbeddingSet(char_vectors=emb.char_vectors.copy(),
                        radical_vectors=emb.radical_vectors.copy(),
                        vocab=emb.vocab, radtable=emb.radtable, config=emb.config)


@dataclass
class RunData:
    seed: int
    corpus: inputs.Corpus
    docs: list
    checkpoint: Path


def prepare(seed: int, workdir: Path) -> RunData:
    """Generate the seed's inputs and write the checkpoint `segment` loads,
    a model with untrained weights drawn from the seed."""
    table = load_radical_table(TABLE_PATH)
    corpus = inputs.make_corpus(seed, table)
    checkpoint = Path(workdir) / "model.bin"
    emb = random_embeddings(corpus.vocab, table, D_CHAR, D_RADICAL, seed)
    save_model(build_model(emb, hidden=HP.hidden, seed=seed), checkpoint)
    return RunData(seed=seed, corpus=corpus, docs=inputs.make_documents(seed, table),
                   checkpoint=checkpoint)


class Phase:
    """Counts operations and failed checks; subclasses fill in set-up and round."""

    name = ""

    def __init__(self, data):
        self.data = data
        self.attempted = 0
        self.failed = 0
        self.reference = None  # a reference.Reference sampled after every call
        self.state = None
        self.losses = []  # one per round; all must be bit-identical

    def call(self, fn, *args, **kwargs):
        """One operation: (seconds, result), or (seconds, None) if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = None
        dt = time.perf_counter() - t0
        if self.reference is not None:
            self.reference.sample(dt)
        return dt, result

    def check(self, ok: bool, what: str) -> bool:
        """A failed check fails the operation it checks."""
        if not ok:
            self.failed += 1
            print(f"perfbench: {self.name}: check failed: {what}", file=sys.stderr)
        return ok

    def check_loss(self, loss: float, what: str) -> None:
        if self.check(math.isfinite(loss), f"{what} {loss} is not finite") and self.losses:
            self.check(loss == self.losses[0],
                       f"{what} {loss!r} differs from the first round's {self.losses[0]!r}")
        self.losses.append(loss)

    def reset_timings(self) -> None:
        """Forget the call times recorded so far; counts and losses stay."""
        raise NotImplementedError

    def setup(self, api) -> float:
        """Build the state the rounds need; returns the seconds it took."""
        t0 = time.perf_counter()
        self.state = self._setup(api)
        return time.perf_counter() - t0


class TrainPhase(Phase):
    """build_model, train() for HP.epochs with validation, then evaluate() on
    test EVAL_REPEATS times."""

    name = "train"

    def __init__(self, data):
        super().__init__(data)
        splits = data.corpus.splits
        self.train_chars = sum(len(u.seq) for u in splits.train) * HP.epochs
        self.eval_chars = sum(len(u.seq) for u in splits.test)
        self.gold_boundaries = sum(len(boundary_positions(u.seq.tags)) for u in splits.test)
        self.reset_timings()

    def reset_timings(self) -> None:
        self.train_s = []
        self.eval_s = []

    def _setup(self, api):
        table = api.load_radical_table(TABLE_PATH)
        vocab = build_vocab(self.data.corpus.splits.train)
        return random_embeddings(vocab, table, D_CHAR, D_RADICAL, self.data.seed)

    def round(self, api) -> float:
        splits = self.data.corpus.splits
        model = build_model(fresh_copy(self.state), hidden=HP.hidden, seed=self.data.seed)
        t_train, log = self.call(api.train, model, splits, HP, seed=self.data.seed)
        if log is not None:
            self.train_s.append(t_train)
            self.check_loss(log.epochs[-1].mean_loss, "train_loss")
        spent = t_train
        for _ in range(EVAL_REPEATS):
            t_eval, rep = self.call(api.evaluate, model, splits.test)
            spent += t_eval
            if rep is not None:
                self.eval_s.append(t_eval)
                self.check(rep.tp + rep.fn == self.gold_boundaries,
                           f"evaluate tp+fn={rep.tp + rep.fn}, "
                           f"gold boundaries {self.gold_boundaries}")
        return spent


class SegmentPhase(Phase):
    """segment() once per raw document with a model from load_model."""

    name = "segment"

    def __init__(self, data):
        super().__init__(data)
        stops = DEFAULT_PUNCT.stops
        self.expected = ["".join(c for c in normalize_text(d) if c not in stops)
                         for d in data.docs]
        self.dropped_chars = 0  # per round; ROADMAP defect 4c, counted, not failed
        self.input_chars = sum(len(d) for d in data.docs)
        self.reset_timings()

    def reset_timings(self) -> None:
        self.latency = [[] for _ in self.data.docs]  # per document, one per round

    def _setup(self, api):
        table = api.load_radical_table(TABLE_PATH)
        return api.load_model(self.data.checkpoint, table)

    def round(self, api) -> float:
        stops = DEFAULT_PUNCT.stops
        spent = 0.0
        dropped = 0
        for i, doc in enumerate(self.data.docs):
            dt, out = self.call(api.segment, self.state, doc, separator=SEPARATOR)
            spent += dt
            if out is None:
                continue
            self.latency[i].append(dt)
            kept = out.replace(SEPARATOR, "")
            self.check(kept == self.expected[i], f"document {i}: output characters differ")
            dropped += sum(1 for c in doc if c not in stops) - len(kept)
        self.dropped_chars = dropped
        return spent


class PretrainPhase(Phase):
    """train_embeddings (CBOW) for one epoch over a slice of the training
    split, with the vocabulary of the whole split."""

    name = "pretrain"

    def __init__(self, data):
        super().__init__(data)
        self.positions = sum(len(u.seq) for u in data.corpus.pretrain_units) * CBOW.epochs
        self.reset_timings()

    def reset_timings(self) -> None:
        self.times = []

    def _setup(self, api):
        table = api.load_radical_table(TABLE_PATH)
        return table, build_vocab(self.data.corpus.splits.train)

    def round(self, api) -> float:
        table, vocab = self.state
        epoch_losses = []
        dt, emb = self.call(api.train_embeddings, self.data.corpus.pretrain_units, table,
                            CBOW, vocab=vocab,
                            progress=lambda epoch, mean: epoch_losses.append(mean))
        if emb is not None:
            self.times.append(dt)
            self.check_loss(epoch_losses[-1], "cbow_loss")
        return dt


PHASES = {p.name: p for p in (TrainPhase, SegmentPhase, PretrainPhase)}
