"""Kangxi radical lookup for Han characters.

Most Han characters carry one of 214 radicals (the semantic component, e.g.
雨 "rain" in 雲 "cloud"). The radical id indexes the radical embedding matrix,
with index 0 reserved for symbols that have no radical at all.

The bundled table (data/kangxi_radicals.tsv) is regenerated by
scripts/build_radical_table.py and covers the Kangxi Radicals block, the
original CJK Unified Ideographs block, and the CJK Compatibility Ideographs
that NFKC maps into it.
"""

from dataclasses import dataclass, field
from pathlib import Path

N_RADICALS = 214
NO_RADICAL = 0  # embedding row for characters outside the table

KANGXI_BLOCK_FIRST = 0x2F00

_DEFAULT_TABLE_PATH = Path(__file__).parent / "data" / "kangxi_radicals.tsv"
_default_table = None


class RadicalTableError(ValueError):
    """Raised when a radical table file cannot be parsed or validated."""


@dataclass(frozen=True)
class RadicalTable:
    """Immutable codepoint -> radical id (1..214) mapping."""

    entries: dict[int, int]
    sha256: str = field(default="", compare=False)

    def __len__(self) -> int:
        return len(self.entries)


def load_radical_table(path) -> RadicalTable:
    """Parse a radical table file: "HEXCODEPOINT<TAB>radical-id" per line.

    Lines starting with '#' are comments. Raises RadicalTableError with the
    offending line number on malformed input, a codepoint outside 0..10FFFF or
    given twice, or an id outside 1..214.
    """
    import hashlib

    path = Path(path)
    raw = path.read_bytes()
    entries: dict[int, int] = {}
    for lineno, line in enumerate(raw.decode("utf-8").splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise RadicalTableError(f"{path}:{lineno}: expected 'HEX<TAB>id', got {line!r}")
        try:
            cp = int(parts[0], 16)
        except ValueError:
            raise RadicalTableError(f"{path}:{lineno}: bad hex codepoint {parts[0]!r}") from None
        if not 0 <= cp <= 0x10FFFF:
            raise RadicalTableError(f"{path}:{lineno}: codepoint {parts[0]!r} outside 0..10FFFF")
        if cp in entries:
            raise RadicalTableError(f"{path}:{lineno}: repeated codepoint {cp:04X}")
        try:
            rid = int(parts[1], 10)
        except ValueError:
            raise RadicalTableError(f"{path}:{lineno}: bad radical id {parts[1]!r}") from None
        if not 1 <= rid <= N_RADICALS:
            raise RadicalTableError(f"{path}:{lineno}: radical id {rid} outside 1..{N_RADICALS}")
        entries[cp] = rid
    return RadicalTable(entries=entries, sha256=hashlib.sha256(raw).hexdigest())


def default_table() -> RadicalTable:
    """The bundled table, loaded once per process."""
    global _default_table
    if _default_table is None:
        _default_table = load_radical_table(_DEFAULT_TABLE_PATH)
    return _default_table


def radical_of(table: RadicalTable, ch: str) -> int | None:
    """Radical id of a character, or None if it has none."""
    return table.entries.get(ord(ch))


def radical_index(table: RadicalTable, ch: str) -> int:
    """Embedding row for a character: its radical id, or 0 for radical-less symbols."""
    return table.entries.get(ord(ch), NO_RADICAL)


def radical_char(rid: int) -> str:
    """The canonical radical character for an id (from the Kangxi Radicals block)."""
    if not 1 <= rid <= N_RADICALS:
        raise ValueError(f"radical id {rid} outside 1..{N_RADICALS}")
    return chr(KANGXI_BLOCK_FIRST + rid - 1)
