"""Kangxi radical lookup for Han characters.

Most Han characters carry one of 214 radicals (the semantic component, e.g.
雨 "rain" in 雲 "cloud"). The radical id indexes the radical embedding matrix,
with index 0 reserved for symbols that have no radical at all.

The bundled table (data/kangxi_radicals.tsv) is regenerated by
scripts/build_radical_table.py and covers the Kangxi Radicals block, the
original CJK Unified Ideographs block, and the CJK Compatibility Ideographs
that NFKC maps into it, as 803 runs of consecutive codepoints with one radical;
loaded, it is one id per codepoint, so a whole string's ids are one gather.
"""

import functools
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_RADICALS = 214
NO_RADICAL = 0  # embedding row for characters outside the table

KANGXI_BLOCK_FIRST = 0x2F00

_HEX, _DECIMAL = set("0123456789ABCDEF"), set("0123456789")  # the only field forms
_DEFAULT_TABLE_PATH = Path(__file__).parent / "data" / "kangxi_radicals.tsv"


class RadicalTableError(ValueError):
    """Raised when a radical table file cannot be parsed or validated."""


@dataclass(frozen=True)
class RadicalTable:
    """Immutable codepoint -> radical id (1..214) mapping, named by its sha256."""

    ids: np.ndarray = field(compare=False, repr=False)  # u8 per codepoint 0..10FFFF, 0: none
    entries: np.ndarray = field(compare=False, repr=False)  # covered codepoints, ascending <u4
    sha256: str


def load_radical_table(path) -> RadicalTable:
    """Parse a radical table file: "FIRST<TAB>LAST<TAB>radical-id" per line,
    a run of consecutive codepoints that share the id, in increasing order.

    Codepoints are uppercase ASCII hex up to 10FFFF and ids ASCII decimal in
    1..214; lines end in LF or CRLF, and lines starting with '#' are comments.
    Raises RadicalTableError naming the line of any fault, bytes that are not
    UTF-8 included. The sha256 hashes the mapping, not the file: the (codepoint,
    id) pairs in codepoint order, as little-endian u32.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        lineno = raw.count(b"\n", 0, e.start) + 1
        raise RadicalTableError(f"{path}:{lineno}: byte {raw[e.start]:#x} is not UTF-8") from None
    ids, prev = np.zeros(0x10FFFF + 1, np.uint8), -1
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{lineno}:"
        *cps, rid = fields = line.split("\t")
        if len(fields) != 3:
            raise RadicalTableError(f"{where} expected 'FIRST<TAB>LAST<TAB>id', got {line!r}")
        for s in cps:
            if not s or not _HEX.issuperset(s):
                raise RadicalTableError(f"{where} bad hex codepoint {s!r}")
            if int(s, 16) > 0x10FFFF:
                raise RadicalTableError(f"{where} codepoint {s!r} outside 0..10FFFF")
        if not rid or not _DECIMAL.issuperset(rid):
            raise RadicalTableError(f"{where} bad radical id {rid!r}")
        digits = rid.lstrip("0")  # at most 3 of them, which keeps int() off huge fields
        if len(digits) > 3 or not 1 <= int(digits or 0) <= N_RADICALS:
            raise RadicalTableError(f"{where} radical id {rid} outside 1..{N_RADICALS}")
        first, last = int(cps[0], 16), int(cps[1], 16)
        if first > last:
            raise RadicalTableError(f"{where} reversed run {first:04X}..{last:04X}")
        if first <= prev:
            raise RadicalTableError(f"{where} run starts at {first:04X}, not after {prev:04X}")
        ids[first:last + 1] = int(digits)
        prev = last
    entries = np.flatnonzero(ids).astype("<u4")
    pairs = np.stack([entries, ids[entries]], axis=1).astype("<u4")
    ids.flags.writeable = entries.flags.writeable = False  # default_table() is shared
    return RadicalTable(ids, entries, hashlib.sha256(pairs.tobytes()).hexdigest())


@functools.cache
def default_table() -> RadicalTable:
    """The bundled table, loaded once per process."""
    return load_radical_table(_DEFAULT_TABLE_PATH)


def radical_of(table: RadicalTable, ch: str) -> int | None:
    """Radical id of a character, or None if it has none."""
    return int(table.ids[ord(ch)]) or None


def radical_char(rid: int) -> str:
    """The canonical radical character for an id (from the Kangxi Radicals block)."""
    if not 1 <= rid <= N_RADICALS:
        raise ValueError(f"radical id {rid} outside 1..{N_RADICALS}")
    return chr(KANGXI_BLOCK_FIRST + rid - 1)
