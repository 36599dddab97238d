"""Text preparation for the tagger.

Punctuated source text is reduced to a bare character stream with per-character
B/E/O tags: B begins a sentence, E ends it, O is interior. A sentence boundary
is reconstructed after every E, so boundary placement survives the round trip
even though the punctuation characters themselves are dropped.

The four text rules are regular expressions over a Han class and a stop class:
`normalize_text` deletes all but Han, '□' and stops, keeping the first stop of
each run; `text_to_tags` splits on stops, the piece after the last stop being
an open sentence; `clean_unsure` drops each sentence, stop and all, that holds
more than max_run '□' in a row; `tags_to_text` cuts after each E but a final one.

A `Vocab` is built from its entries alone, PAD, UNK, then characters, and indexes itself.
"""

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from .nncore import check_int, make_rng

# Tag order is fixed everywhere (serialization, CRF rows).
TAG_B, TAG_E, TAG_O = 0, 1, 2
TAG_CHARS = "BEO"
TAG_TO_ID = {"B": TAG_B, "E": TAG_E, "O": TAG_O}

UNSURE_CHAR = "□"  # placeholder for illegible characters in epitaph corpora

# The kept stop set, both fullwidth and ASCII widths.
DEFAULT_STOPS = frozenset("，。；？！,;?!")

UNIT_SIZE = 100  # characters per unit, the paper's; `segment` decodes units of this size

_HAN = ("\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff"
        "\U00020000-\U0002ee5f\U0002f800-\U0002fa1f\U00030000-\U000323af")
"""The Han class body, every CJK ideograph block: extension A, unified and
compatibility ideographs, extensions B..F and I, the compatibility supplement,
extensions G and H."""

# The text rules' patterns; PunctConfig.compile puts its stop class body at {s}.
STOP = "[{s}]"
"""One stop: `text_to_tags` splits on it and `segment` deletes it."""
DROPPED = "[^" + _HAN + UNSURE_CHAR + "{s}]+"
"""A run of characters that are neither Han, '□' nor stops: `normalize_text` deletes it."""
STOP_RUN = "([{s}])[{s}]+"
"""A run of stops, its first captured: `normalize_text` keeps that one."""
SENTENCE = "[^{s}]*[{s}]|[^{s}]+"
"""A sentence and its stop, or the open text after the last stop (`clean_unsure`)."""


@dataclass(frozen=True)
class PunctConfig:
    """Which punctuation marks count as sentence stops."""

    stops: frozenset = DEFAULT_STOPS

    def __post_init__(self):
        if not self.stops or any(len(c) != 1 for c in self.stops):
            raise ValueError(f"stop set must be non-empty single characters: {sorted(self.stops)}")
        # both are text, not marks; a '□' stop would also hide runs of '□' from clean_unsure
        kept = sorted(c for c in self.stops if re.fullmatch(f"[{_HAN}{UNSURE_CHAR}]", c))
        if kept:
            raise ValueError(f"stop set may not contain Han ideographs or {UNSURE_CHAR}: {kept!r}")

    @cache
    def compile(self, pattern: str) -> re.Pattern:
        """pattern with these stops, escaped, as its stop class body {s}; cached
        per stop set, of which a process uses few."""
        return re.compile(pattern.replace("{s}", "".join(map(re.escape, sorted(self.stops)))))


DEFAULT_PUNCT = PunctConfig()


@dataclass(frozen=True)
class LabeledSequence:
    """Parallel character and tag strings; tags is a string over 'BEO'."""

    chars: str
    tags: str

    def __post_init__(self):
        if len(self.chars) != len(self.tags):
            raise ValueError(f"chars/tags length mismatch: {len(self.chars)} vs {len(self.tags)}")
        if not set(self.tags) <= set(TAG_CHARS):
            raise ValueError(f"tags must be a string over {TAG_CHARS!r}, got {self.tags!r}")

    def __len__(self) -> int:
        return len(self.chars)


@dataclass(frozen=True)
class Unit:
    """A fixed-size training window cut from the tagged character stream."""

    seq: LabeledSequence
    doc_id: str = ""


def check_units(name: str, units: list) -> None:
    """Raise a ValueError naming the argument unless units is a list of non-empty Units."""
    if not isinstance(units, list) or not all(isinstance(u, Unit) and u.seq.chars for u in units):
        raise ValueError(f"{name} must be a list of non-empty corpus Units, got {units!r:.60}")


@dataclass
class CorpusSplits:
    train: list
    valid: list
    test: list


@dataclass
class Vocab:
    """Entries PAD=0, UNK=1, then distinct single characters, which char_to_index
    maps to their rows; any other entry would be a row no character reaches."""

    index_to_char: list
    char_to_index: dict = field(init=False, repr=False)

    PAD = 0
    UNK = 1
    RESERVED = ("<PAD>", "<UNK>")  # the entries at PAD and UNK

    def __post_init__(self):
        entries, first = self.index_to_char, {}
        for i, s in enumerate(entries):
            if first.setdefault(s, i) != i:
                raise ValueError(f"duplicate vocab entry {i} {s!r:.40}, first at {first[s]}")
            if i >= 2 and len(s) != 1:
                raise ValueError(f"vocab entry {i} {s!r:.40} is not one character")
        if tuple(entries[:2]) != self.RESERVED:
            raise ValueError(f"vocab starts {tuple(entries[:2])!s:.60}, expected {self.RESERVED}")
        self.char_to_index = dict(zip(entries[2:], range(2, len(entries))))

    @property
    def size(self) -> int:
        return len(self.index_to_char)


def normalize_text(raw: str, punct: PunctConfig = DEFAULT_PUNCT) -> str:
    """Strip everything but Han characters, '□', and stop marks.

    Runs of consecutive stop marks collapse to the first one.
    """
    return punct.compile(STOP_RUN).sub(r"\1", punct.compile(DROPPED).sub("", raw))


def text_to_tags(punctuated: str, punct: PunctConfig = DEFAULT_PUNCT) -> LabeledSequence:
    """Convert normalized punctuated text into a tagged character stream.

    A complete sentence of length L >= 2 becomes B O^(L-2) E; a single
    character sentence becomes E. Text after the last stop is left as an open
    sentence, B O^(L-1), since its end was never observed.
    """
    *complete, tail = punct.compile(STOP).split(punctuated)
    tags = ["E" if len(s) == 1 else "B" + "O" * (len(s) - 2) + "E" for s in complete if s]
    if tail:
        tags.append("B" + "O" * (len(tail) - 1))
    return LabeledSequence("".join(complete) + tail, "".join(tags))


def tags_to_text(seq: LabeledSequence, separator: str = "/") -> str:
    """Reinsert boundaries: a separator goes after every E except a final one."""
    cuts = [m.end() for m in re.finditer("E", seq.tags[:-1])]
    return separator.join(seq.chars[i:j] for i, j in zip([0, *cuts], [*cuts, len(seq)]))


def boundary_positions(tags: str) -> set:
    """1-based positions after which a sentence ends (every E, including a final one)."""
    return {i + 1 for i, t in enumerate(tags) if t == "E"}


def clean_unsure(text: str, max_run: int = 5, punct: PunctConfig = DEFAULT_PUNCT) -> str:
    """Drop whole sentences containing more than max_run consecutive '□'.

    Sentences keep their trailing stop; a deleted sentence takes its stop with
    it. Idempotent by construction.
    """
    run = UNSURE_CHAR * (check_int("max_run", max_run, 0) + 1)
    return "".join(s for s in punct.compile(SENTENCE).findall(text) if run not in s)


def chunk_units(seq: LabeledSequence, unit_size: int = UNIT_SIZE, doc_id: str = "") -> list:
    """Cut a tagged stream into consecutive windows of unit_size characters."""
    check_int("unit_size", unit_size, 2)
    return [Unit(LabeledSequence(seq.chars[i:i + unit_size], seq.tags[i:i + unit_size]), doc_id)
            for i in range(0, len(seq), unit_size)]


def split_corpus(units: list, seed: int) -> CorpusSplits:
    """Shuffle units with a seeded PCG64 and split 50/25/25, remainder to train."""
    order = make_rng(seed).permutation(len(units))
    shuffled = [units[i] for i in order]
    n = len(units)
    n_quarter = n // 4
    n_train = n - 2 * n_quarter
    return CorpusSplits(
        train=shuffled[:n_train],
        valid=shuffled[n_train:n_train + n_quarter],
        test=shuffled[n_train + n_quarter:],
    )


def build_vocab(units: list) -> Vocab:
    """Index characters by frequency (descending), codepoint ascending on ties."""
    counts = Counter()
    for unit in units:
        counts.update(unit.seq.chars)
    return Vocab([*Vocab.RESERVED, *sorted(counts, key=lambda ch: (-counts[ch], ch))])


# ---------------------------------------------------------------------------
# dataset files: one unit per line, "chars<TAB>tags"

def write_units(units: list, path) -> None:
    """Write units one per line, as read_units reads them back. Raises a
    ValueError, before the file is opened, unless check_units passes and no
    unit's chars hold a tab, LF or CR, which would break its line, or a lone
    surrogate, which UTF-8 cannot hold."""
    check_units("units", units)
    for i, u in enumerate(units):
        if re.search("[\t\n\r\ud800-\udfff]", u.seq.chars):
            raise ValueError(f"unit {i} holds a tab, LF, CR or lone surrogate: "
                             f"{u.seq.chars!r:.60}")
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
            try:
                seq = LabeledSequence(chars, tags) if chars else None
            except ValueError:
                seq = None
            if seq is None:
                raise ValueError(f"{path}:{lineno}: malformed unit line")
            units.append(Unit(seq=seq))
    return units
