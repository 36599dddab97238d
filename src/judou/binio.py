"""Little-endian binary helpers shared by the embedding and checkpoint formats."""

import struct

import numpy as np

from .corpus import Vocab


class FormatError(ValueError):
    """A binary file failed magic, version, shape, encoding, or truncation checks."""


def read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file while reading {what} ({len(data)}/{n} bytes)")
    return data


def write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))

def read_u32(f, what: str) -> int:
    return struct.unpack("<I", read_exact(f, 4, what))[0]

def write_u64(f, value: int) -> None:
    f.write(struct.pack("<Q", value))

def read_u64(f, what: str) -> int:
    return struct.unpack("<Q", read_exact(f, 8, what))[0]


def write_string(f, s: str) -> None:
    data = s.encode("utf-8")
    write_u32(f, len(data))
    f.write(data)

def read_string(f, what: str) -> str:
    n = read_u32(f, f"{what} length")
    try:
        return read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e.reason} at byte {e.start}") from None


def write_vocab(f, vocab: Vocab) -> None:
    for s in vocab.index_to_char:
        write_string(f, s)

def read_vocab(f, size: int) -> Vocab:
    """size entries, PAD and UNK first; a repeated entry would leave a row no
    character maps to, so it is rejected."""
    first = {}
    for i in range(size):
        s = read_string(f, f"vocab entry {i}")
        if first.setdefault(s, i) != i:
            raise FormatError(f"duplicate vocab entry {i} {s!r}, first at {first[s]}")
    return Vocab(char_to_index={s: i for s, i in first.items() if i > Vocab.UNK},
                 index_to_char=list(first))


def write_matrix(f, m: np.ndarray) -> None:
    f.write(np.ascontiguousarray(m, dtype="<f8").tobytes())

def read_matrix(f, rows: int, cols: int, what: str) -> np.ndarray:
    data = read_exact(f, rows * cols * 8, what)
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols).copy()
