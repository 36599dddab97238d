"""Kangxi radical lookup for Han characters.

Most Han characters carry one of 214 radicals (the semantic component, e.g.
雨 "rain" in 雲 "cloud"). The radical id indexes the radical embedding matrix,
with index 0 reserved for symbols that have no radical at all.

The bundled table (data/kangxi_radicals.tsv) is regenerated by
scripts/build_radical_table.py and covers the Kangxi Radicals block, the
original CJK Unified Ideographs block, and the CJK Compatibility Ideographs
that NFKC maps into it.
"""

import hashlib
import re
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

N_RADICALS = 214
NO_RADICAL = 0  # embedding row for characters outside the table

KANGXI_BLOCK_FIRST = 0x2F00

_HEX, _DECIMAL = "[0-9A-F]+", "[0-9]+"  # the only field forms a table may use
# each matches whole lines, before an optional CR
_CODEPOINTS = re.compile(rf"^({_HEX})\t{_DECIMAL}\r?$", re.M)  # of the entries
_IDS = re.compile(rf"^{_HEX}\t({_DECIMAL})\r?$", re.M)
_NOT_ENTRIES = re.compile(r"^(?:#.*|)\r?$", re.M)  # comment and blank lines

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

    The codepoint is uppercase ASCII hex and the id ASCII decimal; lines end
    in LF or CRLF, and lines starting with '#' are comments. Raises
    RadicalTableError with the offending line number on any other field, a
    codepoint outside 0..10FFFF or given twice, or an id outside 1..214.
    """
    path = Path(path)
    raw = path.read_bytes()
    text = raw.decode("utf-8")
    # a field at a time, which makes no per-line objects. The distinct
    # codepoints and the other lines add up to every line exactly when no line
    # is malformed and no codepoint repeats; else a line-by-line parse names it
    cps = list(map(int, _CODEPOINTS.findall(text), repeat(16)))
    rids = list(map(int, _IDS.findall(text)))
    entries = dict(zip(cps, rids))
    if (len(entries) + len(_NOT_ENTRIES.findall(text)) != text.count("\n") + 1
            or entries and (max(cps) > 0x10FFFF or not 1 <= min(rids) <= max(rids) <= N_RADICALS)):
        entries = {}
        for lineno, line in enumerate(re.split(r"\r?\n", text), start=1):
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}:"
            parts = line.split("\t")
            if len(parts) != 2:
                raise RadicalTableError(f"{where} expected 'HEX<TAB>id', got {line!r}")
            if not re.fullmatch(_HEX, parts[0]):
                raise RadicalTableError(f"{where} bad hex codepoint {parts[0]!r}")
            cp = int(parts[0], 16)
            if cp > 0x10FFFF:
                raise RadicalTableError(f"{where} codepoint {parts[0]!r} outside 0..10FFFF")
            if cp in entries:
                raise RadicalTableError(f"{where} repeated codepoint {cp:04X}")
            if not re.fullmatch(_DECIMAL, parts[1]):
                raise RadicalTableError(f"{where} bad radical id {parts[1]!r}")
            rid = int(parts[1])
            if not 1 <= rid <= N_RADICALS:
                raise RadicalTableError(f"{where} radical id {rid} outside 1..{N_RADICALS}")
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
