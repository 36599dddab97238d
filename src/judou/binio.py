"""The one little-endian container of the embedding and checkpoint formats:

    magic | version u8 | header length u32 | header |
    float64 data of every section, in header order | EOF

The header is one JSON object, ASCII-escaped so that every string a file can
hold can be written again: {"field": format field, "vocab": [entry, ...],
"sections": [[name, rows, cols], ...]}. Sections carry no offsets, so they
cannot overlap or leave gaps, and one length check catches both truncated data
and trailing bytes. A file is read with one read() and parsed from memory.
"""

import json
import struct
from dataclasses import dataclass

import numpy as np

from .corpus import Vocab, replacing
from .nncore import fits_float32


class FormatError(ValueError):
    """A binary file failed magic, version, header, shape, or truncation checks."""


_PREAMBLE = struct.Struct("<BI")  # version, header length


def _check_range(name: str, m: np.ndarray, error: type) -> None:
    if not fits_float32(m):
        raise error(f"section {name!r} holds a NaN, an infinity or a value beyond float32's range")


def write_container(path, magic: bytes, version: int, field, vocab: Vocab, sections) -> None:
    """sections: (name, 2-D array) pairs, written in the order given. A value
    the loaders would refuse is a ValueError, raised before the file is opened."""
    sections = [(name, np.ascontiguousarray(m, dtype="<f8")) for name, m in sections]
    for name, m in sections:
        _check_range(name, m, ValueError)
    header = json.dumps({"field": field, "vocab": vocab.index_to_char,
                         "sections": [[name, *m.shape] for name, m in sections]},
                        separators=(",", ":")).encode("ascii")
    with replacing(path, "wb") as f:
        f.write(magic + _PREAMBLE.pack(version, len(header)) + header)
        f.writelines(m.data for _, m in sections)


@dataclass
class Container:
    """A parsed container; a loader takes every section in one take_all call,
    so a missing, mis-shaped, unknown or out-of-range section is an error."""

    field: str | int
    vocab: Vocab
    sections: dict  # name -> read-only (rows, cols) view of the file's bytes

    def shape(self, name: str) -> tuple:
        if name not in self.sections:
            raise FormatError(f"section {name!r} missing")
        return self.sections[name].shape

    def take_all(self, shapes: dict) -> dict:
        """{name: owned copy} for shapes, {name: (rows, cols)}, in its order; a missing,
        mis-shaped or unknown section, or a value float32 cannot hold, is a FormatError."""
        for name, want in shapes.items():
            if self.shape(name) != want:
                raise FormatError(f"section {name!r}: shape {self.shape(name)}, expected {want}")
        if unknown := self.sections.keys() - shapes.keys():
            raise FormatError(f"unknown sections {sorted(unknown)}")
        taken = {name: self.sections[name].copy() for name in shapes}
        for name, m in taken.items():
            _check_range(name, m, FormatError)
        return taken


def _parse_header(raw: bytes, field_type: type) -> tuple:
    """(field, vocab, {name: (rows, cols)} in file order) from the header bytes."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"header is not valid UTF-8: {e.reason} at byte {e.start}") from None
    except (ValueError, RecursionError) as e:
        raise FormatError(f"header is not JSON: {e}") from None
    if type(header) is not dict or sorted(header) != ["field", "sections", "vocab"]:
        raise FormatError("header is not an object of field, vocab and sections")
    field, entries = header["field"], header["vocab"]
    if type(field) is not field_type:
        raise FormatError(f"format field is a {type(field).__name__}, not {field_type.__name__}")
    if type(entries) is not list or not {str}.issuperset(map(type, entries)):
        raise FormatError("vocab is not a list of strings")
    try:
        vocab = Vocab(entries)
    except ValueError as e:
        raise FormatError(str(e)) from None
    if type(header["sections"]) is not list:
        raise FormatError("sections is not a list")
    table = {}
    for i, entry in enumerate(header["sections"]):
        # a row or column count is an int (a bool is not one) below 2**32
        if not (type(entry) is list and len(entry) == 3 and type(entry[0]) is str
                and all(type(n) is int and 0 <= n < 2**32 for n in entry[1:])):
            raise FormatError(f"section {i} is not [name, rows, cols] with counts below 2**32")
        if entry[0] in table:
            raise FormatError(f"duplicate section {entry[0]!r}")
        table[entry[0]] = (entry[1], entry[2])
    return field, vocab, table


def read_container(path, magic: bytes, version: int, field_type: type) -> Container:
    with open(path, "rb") as f:
        data = f.read()
    if data[:len(magic)] != magic:
        raise FormatError(f"bad magic {data[:len(magic)]!r}, expected {magic!r}")
    start = len(magic) + _PREAMBLE.size
    if len(data) < start:
        raise FormatError(f"truncated file before the header ({len(data)}/{start} bytes)")
    got, n = _PREAMBLE.unpack_from(data, len(magic))
    if got != version:
        raise FormatError(f"unsupported version {got}, expected {version}")
    if len(data) < start + n:
        raise FormatError(f"truncated header ({len(data) - start}/{n} bytes)")
    field, vocab, table = _parse_header(data[start:start + n], field_type)
    size, offset = len(data) - start - n, start + n
    expected = sum(rows * cols * 8 for rows, cols in table.values())
    if size < expected:
        raise FormatError(f"truncated section data ({size}/{expected} bytes)")
    if size > expected:
        raise FormatError(f"{size - expected} trailing bytes after the section data")
    sections = {}
    for name, (rows, cols) in table.items():
        sections[name] = np.frombuffer(data, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += rows * cols * 8
    return Container(field=field, vocab=vocab, sections=sections)
