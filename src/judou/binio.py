"""The one little-endian container of the embedding and checkpoint formats:

    magic | version u8 | format field | vocab size u32 | vocab | section count u32 |
    (name, rows u32, cols u32)... | float64 data of every section in table order | EOF

Strings are a u32 byte length plus UTF-8; the format field is a string or a u32.
The vocab is one string, its entries joined by newlines, so an entry cannot
hold one; it is decoded and split once.
Sections carry no offsets, so they cannot overlap or leave gaps, and one length
check catches both truncated data and trailing bytes. A file is read with one
read() and parsed from memory.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import Vocab, first_repeat


class FormatError(ValueError):
    """A binary file failed magic, version, shape, encoding, or truncation checks."""


_U32 = struct.Struct("<I")


class _Cursor:
    """Reads from a whole file's bytes at a moving offset."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def take(self, n: int, what: str) -> bytes:
        start = self.pos
        self.pos = min(start + n, len(self.data))
        if self.pos - start != n:
            raise FormatError(f"truncated file while reading {what} ({self.pos - start}/{n} bytes)")
        return self.data[start:self.pos]

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def string(self, what: str) -> str:
        """A u32 byte length plus UTF-8."""
        data = self.take(self.u32(f"{what} length"), what)
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{what} is not valid UTF-8: {e.reason} at byte {e.start}") from None


def _write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))


def _write_string(f, s: str) -> None:
    data = s.encode("utf-8")
    _write_u32(f, len(data))
    f.write(data)


def _read_vocab(r: _Cursor, size: int) -> Vocab:
    """size entries, PAD and UNK first, none repeated."""
    index_to_char = r.string("vocab").split("\n")
    if len(index_to_char) != size:
        raise FormatError(f"vocab splits into {len(index_to_char)} entries at newlines, "
                          f"expected {size}")
    if len(set(index_to_char)) != size:
        i, j = first_repeat(index_to_char)
        raise FormatError(f"duplicate vocab entry {i} {index_to_char[i]!r}, first at {j}")
    if tuple(index_to_char[:2]) != Vocab.RESERVED:
        raise FormatError(f"vocab starts {tuple(index_to_char[:2])}, expected {Vocab.RESERVED}")
    return Vocab(index_to_char)


# the format field's writer and reader, by its Python type
_FIELD_IO = {str: (_write_string, _Cursor.string), int: (_write_u32, _Cursor.u32)}


def write_container(path, magic: bytes, version: int, field, vocab: Vocab, sections) -> None:
    """sections: (name, 2-D array) pairs, written in the order given."""
    for s in vocab.index_to_char:
        if "\n" in s:
            raise ValueError(f"vocab entry {s!r} contains a newline")
    sections = [(name, np.ascontiguousarray(m, dtype="<f8")) for name, m in sections]
    with open(path, "wb") as f:
        f.write(magic)
        f.write(bytes([version]))
        _FIELD_IO[type(field)][0](f, field)
        _write_u32(f, vocab.size)
        _write_string(f, "\n".join(vocab.index_to_char))
        _write_u32(f, len(sections))
        for name, m in sections:
            _write_string(f, name)
            _write_u32(f, m.shape[0])
            _write_u32(f, m.shape[1])
        for _, m in sections:
            f.write(m.data)


@dataclass
class Container:
    """A parsed container; a loader takes each section exactly once, then
    calls done(), so a missing, mis-shaped or unknown section is an error."""

    field: str | int
    vocab: Vocab
    sections: dict  # name -> read-only (rows, cols) view of the file's bytes

    def shape(self, name: str) -> tuple:
        if name not in self.sections:
            raise FormatError(f"section {name!r} missing")
        return self.sections[name].shape

    def take(self, name: str, shape: tuple) -> np.ndarray:
        """Remove and return a section; a None in shape matches any size."""
        got = self.shape(name)
        if any(want is not None and want != n for want, n in zip(shape, got)):
            raise FormatError(f"section {name!r}: shape {got}, expected {shape}")
        return self.sections.pop(name)

    def done(self) -> None:
        if self.sections:
            raise FormatError(f"unknown sections {sorted(self.sections)}")


def read_container(path, magic: bytes, version: int, field_type: type) -> Container:
    with open(path, "rb") as f:
        r = _Cursor(f.read())
    got = r.take(len(magic), "magic")
    if got != magic:
        raise FormatError(f"bad magic {got!r}, expected {magic!r}")
    got = r.take(1, "version")[0]
    if got != version:
        raise FormatError(f"unsupported version {got}, expected {version}")
    field = _FIELD_IO[field_type][1](r, "format field")
    vocab = _read_vocab(r, r.u32("vocab size"))
    table = {}  # name -> (rows, cols), in file order
    for i in range(r.u32("section count")):
        name = r.string(f"section {i} name")
        if name in table:
            raise FormatError(f"duplicate section {name!r}")
        table[name] = (r.u32(f"section {name} rows"), r.u32(f"section {name} cols"))
    size = len(r.data) - r.pos
    expected = sum(rows * cols * 8 for rows, cols in table.values())
    if size < expected:
        raise FormatError(f"truncated section data ({size}/{expected} bytes)")
    if size > expected:
        raise FormatError(f"{size - expected} trailing bytes after the section data")
    sections, offset = {}, r.pos
    for name, (rows, cols) in table.items():
        sections[name] = np.frombuffer(r.data, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += rows * cols * 8
    return Container(field=field, vocab=vocab, sections=sections)
