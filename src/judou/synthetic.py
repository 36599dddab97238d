"""Synthetic corpora for the two end-to-end checks.

The real 150-book corpus is proprietary, so the pipeline is exercised on
generated text instead. Two generators:

* an overfit fixture whose boundaries follow a fixed period-3 rule with a
  marker character, learnable within 30 epochs at the default hyperparameters;
* a radical-signal corpus where sentence-final characters come from two
  radical classes (water and speech) and the held-out units use finals never
  seen in training. A model with radical vectors can generalize through the
  shared radical row; a char-only ablation sees only UNK there, and unseen
  filler characters make UNK itself uninformative.
"""

from dataclasses import dataclass

from .corpus import (CorpusSplits, LabeledSequence, Unit, build_vocab,
                     chunk_units, Vocab)
from .embedding import EmbeddingConfig, EmbeddingSet, untrained_embeddings
from .nncore import make_rng
from .radicals import RadicalTable, default_table
from .segmenter import (EvalReport, Hyperparams, SegmenterModel, TrainLog,
                        build_model, evaluate, train)

WATER, SPEECH = 85, 149
# filler radicals: person, mouth, earth, wood, fire, jade, silk, grass, metal, horse
FILLER_RADICALS = (9, 30, 32, 75, 86, 96, 120, 140, 167, 187)


def chars_with_radical(table: RadicalTable, radical_id: int, count: int,
                       skip: int = 0) -> str:
    """The first `count` basic-block characters carrying radical_id, in
    codepoint order (skipping `skip` lets two pools share a radical disjointly)."""
    picked = []
    for cp in sorted(table.entries):
        if 0x4E00 <= cp <= 0x9FA5 and table.entries[cp] == radical_id:
            picked.append(chr(cp))
            if len(picked) == count + skip:
                break
    if len(picked) < count + skip:
        raise ValueError(f"radical {radical_id}: only {len(picked)} characters available")
    return "".join(picked[skip:])


# ---------------------------------------------------------------------------
# overfit fixture: period-3 sentences, every third character is the marker

OVERFIT_FILLERS = "天地人山水火木金土日月星春秋冬夏風雨雪"
OVERFIT_MARKER = "也"


def overfit_corpus(seed: int = 0, n_units: int = 20, sentences_per_unit: int = 7) -> list:
    """Units of `sentences_per_unit` three-character sentences; each sentence is
    two random fillers plus the marker, so tags are a strict BOE period."""
    rng = make_rng(seed)
    fillers = list(OVERFIT_FILLERS)
    units = []
    for u in range(n_units):
        chars = []
        for _ in range(sentences_per_unit):
            chars.append(fillers[rng.integers(len(fillers))])
            chars.append(fillers[rng.integers(len(fillers))])
            chars.append(OVERFIT_MARKER)
        seq = LabeledSequence("".join(chars), "BOE" * sentences_per_unit)
        units.append(Unit(seq=seq, doc_id="overfit", offset=u))
    return units


def run_overfit(seed: int = 0, hp: Hyperparams = None, progress=None):
    """Train on the 20-unit fixture at the default hyperparameters; returns
    (model, training-set report, log). Validation is the training set itself,
    so best-epoch restoration tracks exactly the quantity under test."""
    if hp is None:
        hp = Hyperparams()
    units = overfit_corpus(seed)
    vocab = build_vocab(units)
    table = default_table()
    emb = random_embeddings(vocab, table, d_char=hp.embed_dim - 30, d_radical=30,
                            seed=seed)
    model = build_model(emb, hidden=hp.hidden, seed=seed)
    splits = CorpusSplits(train=units, valid=units, test=[], seed=seed)
    log = train(model, splits, hp, seed=seed, progress=progress)
    return model, evaluate(model, units), log


# ---------------------------------------------------------------------------
# radical-signal experiment

@dataclass
class RadicalPools:
    finals_train: str
    finals_heldout: str
    fillers_train: str
    fillers_heldout: str


def default_pools(table: RadicalTable) -> RadicalPools:
    finals_train = (chars_with_radical(table, WATER, 12)
                    + chars_with_radical(table, SPEECH, 12))
    finals_heldout = (chars_with_radical(table, WATER, 8, skip=12)
                      + chars_with_radical(table, SPEECH, 8, skip=12))
    fillers_train = "".join(chars_with_radical(table, r, 3) for r in FILLER_RADICALS)
    fillers_heldout = "".join(chars_with_radical(table, r, 2, skip=3) for r in FILLER_RADICALS)
    return RadicalPools(finals_train, finals_heldout, fillers_train, fillers_heldout)


def _sentence_stream(rng, n_chars: int, finals: str, filler_draw) -> LabeledSequence:
    chars, tags = [], []
    while len(chars) < n_chars:
        length = int(rng.integers(2, 6))
        for _ in range(length - 1):
            chars.append(filler_draw(rng))
        chars.append(finals[rng.integers(len(finals))])
        tags.append("B" + "O" * (length - 2) + "E")
    return LabeledSequence("".join(chars[:n_chars]), "".join(tags)[:n_chars])


def radical_signal_corpus(seed: int, table: RadicalTable, n_train: int = 60,
                          n_valid: int = 15, n_test: int = 30,
                          unit_size: int = 36,
                          pools: RadicalPools = None) -> CorpusSplits:
    """Splits with test finals all outside the training pool. Validation comes
    from the training pools (model selection must not peek at held-out
    characters). Test fillers are an even mix of seen and unseen characters,
    so being unknown is, by itself, weak evidence of a boundary."""
    if pools is None:
        pools = default_pools(table)
    rng = make_rng(seed)

    def train_filler(r):
        return pools.fillers_train[r.integers(len(pools.fillers_train))]

    def test_filler(r):
        pool = pools.fillers_heldout if r.random() < 0.5 else pools.fillers_train
        return pool[r.integers(len(pool))]

    def cut(stream, n, doc_id):
        return chunk_units(stream, unit_size, doc_id=doc_id)[:n]

    train_stream = _sentence_stream(rng, n_train * unit_size, pools.finals_train, train_filler)
    valid_stream = _sentence_stream(rng, n_valid * unit_size, pools.finals_train, train_filler)
    test_stream = _sentence_stream(rng, n_test * unit_size, pools.finals_heldout, test_filler)
    return CorpusSplits(train=cut(train_stream, n_train, "rs-train"),
                        valid=cut(valid_stream, n_valid, "rs-valid"),
                        test=cut(test_stream, n_test, "rs-test"),
                        seed=seed)


def random_embeddings(vocab: Vocab, table: RadicalTable, d_char: int,
                      d_radical: int, seed: int) -> EmbeddingSet:
    """The untrained embeddings of a CBOW model seeded seed, without its projection."""
    return untrained_embeddings(vocab, table, EmbeddingConfig(d_char=d_char, d_radical=d_radical),
                                make_rng(seed))


@dataclass
class AblationRun:
    seed: int
    f1_radical: float
    f1_char_only: float

    @property
    def gap(self) -> float:
        return self.f1_radical - self.f1_char_only


@dataclass
class AblationResult:
    runs: list

    @property
    def mean_gap(self) -> float:
        return sum(r.gap for r in self.runs) / len(self.runs)

    @property
    def mean_f1_radical(self) -> float:
        return sum(r.f1_radical for r in self.runs) / len(self.runs)

    @property
    def mean_f1_char_only(self) -> float:
        return sum(r.f1_char_only for r in self.runs) / len(self.runs)


def radical_signal_hyperparams() -> Hyperparams:
    # small model, hot learning rate: the point is the gap, not absolute F1
    return Hyperparams(embed_dim=36, hidden=32, batch=10, epochs=12,
                       learning_rate=0.1, clip_norm=5.0, dropout=0.1)


def run_radical_signal(seeds=(0, 1, 2, 3, 4), table: RadicalTable = None,
                       hp: Hyperparams = None, progress=None) -> AblationResult:
    """Train the radical model and the char-only ablation on the same corpus
    and embedding init for each seed; score both on the held-out units."""
    if table is None:
        table = default_table()
    if hp is None:
        hp = radical_signal_hyperparams()
    pools = default_pools(table)
    runs = []
    for seed in seeds:
        splits = radical_signal_corpus(seed, table, pools=pools)
        vocab = build_vocab(splits.train)
        d_radical = 12
        emb = random_embeddings(vocab, table, d_char=hp.embed_dim - d_radical,
                                d_radical=d_radical, seed=seed)

        scores = {}
        for use_radicals in (True, False):
            model = build_model(emb, hidden=hp.hidden, seed=seed,
                                use_radicals=use_radicals)
            train(model, splits, hp, seed=seed)
            scores[use_radicals] = evaluate(model, splits.test).f1
        run = AblationRun(seed=seed, f1_radical=scores[True], f1_char_only=scores[False])
        runs.append(run)
        if progress is not None:
            progress(run)
    return AblationResult(runs=runs)
