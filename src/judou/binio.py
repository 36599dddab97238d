"""The one little-endian container of the embedding and checkpoint formats:

    magic | version u8 | format field | vocab size u32 | vocab | section count u32 |
    (name, rows u32, cols u32)... | float64 data of every section in table order | EOF

Strings are a u32 byte length plus UTF-8; the format field is a string or a u32.
Sections carry no offsets, so they cannot overlap or leave gaps, and one length
check catches both truncated data and trailing bytes.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .corpus import Vocab


class FormatError(ValueError):
    """A binary file failed magic, version, shape, encoding, or truncation checks."""


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what} ({len(data)}/{n} bytes)")
    return data


def _write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))

def _read_u32(f, what: str) -> int:
    return struct.unpack("<I", _read_exact(f, 4, what))[0]


def _write_string(f, s: str) -> None:
    data = s.encode("utf-8")
    _write_u32(f, len(data))
    f.write(data)

def _read_string(f, what: str) -> str:
    n = _read_u32(f, f"{what} length")
    try:
        return _read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e.reason} at byte {e.start}") from None


def _read_vocab(f, size: int) -> Vocab:
    """size entries, PAD and UNK first; a repeated entry would leave a row no
    character maps to, so it is rejected."""
    first = {}
    for i in range(size):
        s = _read_string(f, f"vocab entry {i}")
        if first.setdefault(s, i) != i:
            raise FormatError(f"duplicate vocab entry {i} {s!r}, first at {first[s]}")
    if tuple(first)[:2] != Vocab.RESERVED:
        raise FormatError(f"vocab starts {tuple(first)[:2]}, expected {Vocab.RESERVED}")
    return Vocab(char_to_index={s: i for s, i in first.items() if i > Vocab.UNK},
                 index_to_char=list(first))


# the format field's writer and reader, by its Python type
_FIELD_IO = {str: (_write_string, _read_string), int: (_write_u32, _read_u32)}


def write_container(path, magic: bytes, version: int, field, vocab: Vocab, sections) -> None:
    """sections: (name, 2-D array) pairs, written in the order given."""
    sections = [(name, np.ascontiguousarray(m, dtype="<f8")) for name, m in sections]
    with open(path, "wb") as f:
        f.write(magic)
        f.write(bytes([version]))
        _FIELD_IO[type(field)][0](f, field)
        _write_u32(f, vocab.size)
        for s in vocab.index_to_char:
            _write_string(f, s)
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
        got = _read_exact(f, len(magic), "magic")
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")
        got = _read_exact(f, 1, "version")[0]
        if got != version:
            raise FormatError(f"unsupported version {got}, expected {version}")
        field = _FIELD_IO[field_type][1](f, "format field")
        vocab = _read_vocab(f, _read_u32(f, "vocab size"))
        table = {}  # name -> (rows, cols), in file order
        for i in range(_read_u32(f, "section count")):
            name = _read_string(f, f"section {i} name")
            if name in table:
                raise FormatError(f"duplicate section {name!r}")
            table[name] = (_read_u32(f, f"section {name} rows"),
                           _read_u32(f, f"section {name} cols"))
        data = f.read()
    expected = sum(rows * cols * 8 for rows, cols in table.values())
    if len(data) < expected:
        raise FormatError(f"truncated section data ({len(data)}/{expected} bytes)")
    if len(data) > expected:
        raise FormatError(f"{len(data) - expected} trailing bytes after the section data")
    sections, offset = {}, 0
    for name, (rows, cols) in table.items():
        sections[name] = np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += rows * cols * 8
    return Container(field=field, vocab=vocab, sections=sections)
