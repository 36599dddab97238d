"""Text preparation for the tagger.

Punctuated source text is reduced to a bare character stream with per-character
B/E/O tags: B begins a sentence, E ends it, O is interior. A sentence boundary
is reconstructed after every E, so boundary placement survives the round trip
even though the punctuation characters themselves are dropped.
"""

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

# Tag order is fixed everywhere (serialization, CRF rows).
TAG_B, TAG_E, TAG_O = 0, 1, 2
TAG_CHARS = "BEO"
TAG_TO_ID = {"B": TAG_B, "E": TAG_E, "O": TAG_O}

UNSURE_CHAR = "□"  # placeholder for illegible characters in epitaph corpora

# The kept stop set, both fullwidth and ASCII widths.
DEFAULT_STOPS = frozenset("，。；？！,;?!")

_HAN_RANGES = (
    (0x3400, 0x4DBF),  # extension A
    (0x4E00, 0x9FFF),  # unified ideographs
    (0xF900, 0xFAFF),  # compatibility ideographs
    (0x20000, 0x2EBEF),  # extensions B..F
)


def is_han(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _HAN_RANGES)


@dataclass(frozen=True)
class PunctConfig:
    """Which punctuation marks count as sentence stops."""

    stops: frozenset = DEFAULT_STOPS

    def __post_init__(self):
        if not self.stops:
            raise ValueError("stop set must be non-empty")
        han = [c for c in self.stops if is_han(c)]
        if han:
            raise ValueError(f"stop set may not contain Han ideographs: {han!r}")


DEFAULT_PUNCT = PunctConfig()


@dataclass(frozen=True)
class LabeledSequence:
    """Parallel character and tag strings; tags is a string over 'BEO'."""

    chars: str
    tags: str

    def __post_init__(self):
        if len(self.chars) != len(self.tags):
            raise ValueError(f"chars/tags length mismatch: {len(self.chars)} vs {len(self.tags)}")

    def __len__(self) -> int:
        return len(self.chars)


@dataclass(frozen=True)
class Unit:
    """A fixed-size training window cut from the tagged character stream."""

    seq: LabeledSequence
    doc_id: str = ""
    offset: int = 0


@dataclass
class CorpusSplits:
    train: list
    valid: list
    test: list
    seed: int


@dataclass
class Vocab:
    """Character vocabulary with reserved PAD=0 and UNK=1 rows."""

    char_to_index: dict
    index_to_char: list

    PAD = 0
    UNK = 1
    RESERVED = ("<PAD>", "<UNK>")  # the entries at PAD and UNK

    @property
    def size(self) -> int:
        return len(self.index_to_char)

    def encode(self, ch: str) -> int:
        return self.char_to_index.get(ch, self.UNK)


def normalize_text(raw: str, punct: PunctConfig = DEFAULT_PUNCT) -> str:
    """Strip everything but Han characters, '□', and stop marks.

    Runs of consecutive stop marks collapse to the first one.
    """
    out = []
    for ch in raw:
        if ch in punct.stops:
            if out and out[-1] in punct.stops:
                continue
            out.append(ch)
        elif is_han(ch) or ch == UNSURE_CHAR:
            out.append(ch)
    return "".join(out)


def text_to_tags(punctuated: str, punct: PunctConfig = DEFAULT_PUNCT) -> LabeledSequence:
    """Convert normalized punctuated text into a tagged character stream.

    A complete sentence of length L >= 2 becomes B O^(L-2) E; a single
    character sentence becomes E. Text after the last stop is left as an open
    sentence, B O^(L-1), since its end was never observed.
    """
    chars = []
    tags = []

    def flush(sentence: list, complete: bool):
        if not sentence:
            return
        chars.extend(sentence)
        n = len(sentence)
        if complete:
            tags.append("E" if n == 1 else "B" + "O" * (n - 2) + "E")
        else:
            tags.append("B" + "O" * (n - 1))

    current: list = []
    for ch in punctuated:
        if ch in punct.stops:
            flush(current, complete=True)
            current = []
        else:
            current.append(ch)
    flush(current, complete=False)
    return LabeledSequence("".join(chars), "".join(tags))


def tags_to_text(seq: LabeledSequence, separator: str = "/") -> str:
    """Reinsert boundaries: a separator goes after every E except a final one."""
    out = []
    last = len(seq) - 1
    for i, (ch, tag) in enumerate(zip(seq.chars, seq.tags)):
        out.append(ch)
        if tag == "E" and i != last:
            out.append(separator)
    return "".join(out)


def boundary_positions(tags: str) -> set:
    """1-based positions after which a sentence ends (every E, including a final one)."""
    return {i + 1 for i, t in enumerate(tags) if t == "E"}


def clean_unsure(text: str, max_run: int = 5, punct: PunctConfig = DEFAULT_PUNCT) -> str:
    """Drop whole sentences containing more than max_run consecutive '□'.

    Sentences keep their trailing stop; a deleted sentence takes its stop with
    it. Idempotent by construction.
    """
    run_re = re.compile(re.escape(UNSURE_CHAR) + "{" + str(max_run + 1) + ",}")
    out = []
    current = []
    for ch in text:
        current.append(ch)
        if ch in punct.stops:
            segment = "".join(current)
            if not run_re.search(segment):
                out.append(segment)
            current = []
    tail = "".join(current)
    if tail and not run_re.search(tail):
        out.append(tail)
    return "".join(out)


def chunk_units(seq: LabeledSequence, unit_size: int = 100, doc_id: str = "") -> list:
    """Cut a tagged stream into consecutive windows of unit_size characters."""
    if unit_size < 2:
        raise ValueError(f"unit_size must be >= 2, got {unit_size}")
    units = []
    for start in range(0, len(seq), unit_size):
        piece = LabeledSequence(seq.chars[start:start + unit_size], seq.tags[start:start + unit_size])
        units.append(Unit(seq=piece, doc_id=doc_id, offset=start))
    return units


def split_corpus(units: list, seed: int) -> CorpusSplits:
    """Shuffle units with a seeded PCG64 and split 50/25/25, remainder to train."""
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(units))
    shuffled = [units[i] for i in order]
    n = len(units)
    n_quarter = n // 4
    n_train = n - 2 * n_quarter
    return CorpusSplits(
        train=shuffled[:n_train],
        valid=shuffled[n_train:n_train + n_quarter],
        test=shuffled[n_train + n_quarter:],
        seed=seed,
    )


def build_vocab(units: list, min_count: int = 1) -> Vocab:
    """Index characters by frequency (descending), codepoint ascending on ties."""
    counts = Counter()
    for unit in units:
        counts.update(unit.seq.chars)
    kept = sorted(
        (ch for ch, c in counts.items() if c >= min_count),
        key=lambda ch: (-counts[ch], ch),
    )
    index_to_char = [*Vocab.RESERVED, *kept]
    char_to_index = {ch: i + 2 for i, ch in enumerate(kept)}
    return Vocab(char_to_index=char_to_index, index_to_char=index_to_char)


# ---------------------------------------------------------------------------
# dataset files: one unit per line, "chars<TAB>tags"

def write_units(units: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for u in units:
            f.write(f"{u.seq.chars}\t{u.seq.tags}\n")


def read_units(path) -> list:
    units = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                chars, tags = line.split("\t")
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'chars<TAB>tags'") from None
            if len(chars) != len(tags) or not set(tags) <= set(TAG_CHARS):
                raise ValueError(f"{path}:{lineno}: malformed unit line")
            units.append(Unit(seq=LabeledSequence(chars, tags)))
    return units


def write_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for ch in vocab.index_to_char[2:]:
            f.write(ch + "\n")


def read_vocab(path) -> Vocab:
    chars = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line:
                chars.append(line)
    return Vocab(
        char_to_index={ch: i + 2 for i, ch in enumerate(chars)},
        index_to_char=[*Vocab.RESERVED, *chars],
    )
