"""Synthetic corpora for the two end-to-end checks.

The real 150-book corpus is proprietary, so the pipeline is exercised on
generated text instead. The demo scripts beside this module and the
acceptance gate import it; the installed package does not. Two generators, each of one size set by the module
constants below, whose units are plain `Unit(seq)`s:

* an overfit fixture, 20 units of 7 sentences whose boundaries follow a fixed
  period-3 rule with a marker character, learnable within 30 epochs at the
  default hyperparameters under 70+30 embedding dims and H = 100;
* a radical-signal corpus, 60/15/30 train/valid/test units of 36 characters
  (24+12 dims, H = 32), where sentence-final characters come from two
  radical classes (water and speech) and the held-out units use finals never
  seen in training. A model with radical vectors can generalize through the
  shared radical row; a char-only ablation sees only UNK there, and unseen
  filler characters make UNK itself uninformative.
"""

from dataclasses import dataclass

from judou.corpus import CorpusSplits, LabeledSequence, Unit, build_vocab, chunk_units
from judou.nncore import make_rng
from judou.radicals import RadicalTable, default_table
from judou.segmenter import Hyperparams, build_model, evaluate, train
from judou.synthetic import random_embeddings

WATER, SPEECH = 85, 149
# filler radicals: person, mouth, earth, wood, fire, jade, silk, grass, metal, horse
FILLER_RADICALS = (9, 30, 32, 75, 86, 96, 120, 140, 167, 187)
# the radical-signal corpus's train/valid/test unit counts and unit size, and its
# model, trained at a hot learning rate: the point is the gap, not absolute F1
RS_UNITS, RS_UNIT_SIZE = (60, 15, 30), 36
RS_D_CHAR, RS_D_RADICAL, RS_HIDDEN = 24, 12, 32
RS_HYPERPARAMS = Hyperparams(batch=10, epochs=12, learning_rate=0.1, clip_norm=5.0, dropout=0.1)


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
OVERFIT_UNITS, OVERFIT_SENTENCES = 20, 7
OVERFIT_D_CHAR, OVERFIT_D_RADICAL, OVERFIT_HIDDEN = 70, 30, 100


def overfit_corpus(seed: int = 0) -> list:
    """OVERFIT_UNITS units of OVERFIT_SENTENCES three-character sentences; each
    sentence is two random fillers plus the marker, so tags are a strict BOE period."""
    rng = make_rng(seed)
    fillers = list(OVERFIT_FILLERS)
    units = []
    for _ in range(OVERFIT_UNITS):
        chars = []
        for _ in range(OVERFIT_SENTENCES):
            chars.append(fillers[rng.integers(len(fillers))])
            chars.append(fillers[rng.integers(len(fillers))])
            chars.append(OVERFIT_MARKER)
        units.append(Unit(LabeledSequence("".join(chars), "BOE" * OVERFIT_SENTENCES)))
    return units


def run_overfit(seed: int = 0, progress=None):
    """Train on the fixture at the default hyperparameters; returns (model,
    training-set report, log). Validation is the training set itself, so
    best-epoch restoration tracks exactly the quantity under test."""
    units = overfit_corpus(seed)
    emb = random_embeddings(build_vocab(units), default_table(), OVERFIT_D_CHAR,
                            OVERFIT_D_RADICAL, seed)
    model = build_model(emb, hidden=OVERFIT_HIDDEN, seed=seed)
    log = train(model, CorpusSplits(train=units, valid=units, test=[]), Hyperparams(),
                seed=seed, progress=progress)
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


def radical_signal_corpus(seed: int, table: RadicalTable,
                          pools: RadicalPools = None) -> CorpusSplits:
    """RS_UNITS train/valid/test units of RS_UNIT_SIZE characters, with test
    finals all outside the training pool. Validation comes from the training
    pools (model selection must not peek at held-out characters). Test fillers
    are an even mix of seen and unseen characters, so being unknown is, by
    itself, weak evidence of a boundary."""
    if pools is None:
        pools = default_pools(table)
    rng = make_rng(seed)

    def train_filler(r):
        return pools.fillers_train[r.integers(len(pools.fillers_train))]

    def test_filler(r):
        pool = pools.fillers_heldout if r.random() < 0.5 else pools.fillers_train
        return pool[r.integers(len(pool))]

    def cut(n, finals, filler):
        return chunk_units(_sentence_stream(rng, n * RS_UNIT_SIZE, finals, filler), RS_UNIT_SIZE)

    n_train, n_valid, n_test = RS_UNITS
    return CorpusSplits(train=cut(n_train, pools.finals_train, train_filler),
                        valid=cut(n_valid, pools.finals_train, train_filler),
                        test=cut(n_test, pools.finals_heldout, test_filler))


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


def run_radical_signal(seeds=(0, 1, 2, 3, 4), progress=None) -> AblationResult:
    """Train the radical model and the char-only ablation on the same corpus
    and embedding init for each seed; score both on the held-out units."""
    table = default_table()
    pools = default_pools(table)
    runs = []
    for seed in seeds:
        splits = radical_signal_corpus(seed, table, pools=pools)
        emb = random_embeddings(build_vocab(splits.train), table, RS_D_CHAR, RS_D_RADICAL, seed)

        scores = {}
        for use_radicals in (True, False):
            model = build_model(emb, hidden=RS_HIDDEN, seed=seed, use_radicals=use_radicals)
            train(model, splits, RS_HYPERPARAMS, seed=seed)
            scores[use_radicals] = evaluate(model, splits.test).f1
        run = AblationRun(seed=seed, f1_radical=scores[True], f1_char_only=scores[False])
        runs.append(run)
        if progress is not None:
            progress(run)
    return AblationResult(runs=runs)
