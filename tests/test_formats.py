"""Strict validation of the shared container, fuzzed over both file formats."""

import json
import re
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judou import binio, embedding, segmenter
from judou.binio import FormatError
from judou.corpus import build_vocab
from judou.embedding import load_embeddings, save_embeddings
from judou.segmenter import build_model, load_model, save_model
from judou.synthetic import random_embeddings

from test_segmenter import tiny_splits


@dataclass
class Saved:
    blob: bytes       # a valid file
    path: object      # a scratch path to write variants to
    load: object      # the format's loader
    save: object      # and its saver
    spec: tuple       # (magic, version, field type) for binio.read_container

    def contents(self) -> binio.Container:
        self.path.write_bytes(self.blob)
        return binio.read_container(self.path, *self.spec)

    def rewrite(self, sections) -> None:
        """Write a container with the valid file's header and these sections."""
        c = self.contents()
        binio.write_container(self.path, *self.spec[:2], c.field, c.vocab, sections)

    def header(self) -> dict:
        at = len(self.spec[0]) + 1
        n, = struct.unpack_from("<I", self.blob, at)
        return json.loads(self.blob[at + 4:at + 4 + n])

    def write_with_header(self, header: bytes) -> None:
        """Write the valid file with its JSON header replaced by these bytes."""
        at = len(self.spec[0]) + 1
        n, = struct.unpack_from("<I", self.blob, at)
        self.path.write_bytes(self.blob[:at] + struct.pack("<I", len(header)) + header
                              + self.blob[at + 4 + n:])


@pytest.fixture(scope="module", params=["GJSEG01", "GJEMB01"])
def saved(request, table, tmp_path_factory):
    emb = random_embeddings(build_vocab(tiny_splits().train), table, d_char=4, d_radical=3, seed=0)
    path = tmp_path_factory.mktemp(request.param) / "file.bin"
    if request.param == "GJSEG01":
        save_model(build_model(emb, hidden=3), path)
        return Saved(path.read_bytes(), path, partial(load_model, radtable=table), save_model,
                     (segmenter.MAGIC, segmenter.VERSION, str))
    save_embeddings(emb, path)
    return Saved(path.read_bytes(), path, load_embeddings, save_embeddings,
                 (embedding.MAGIC, embedding.VERSION, int))


@settings(deadline=None)
@given(data=st.data())
def test_load_rejects_every_truncation(saved, data):
    saved.path.write_bytes(saved.blob[:data.draw(st.integers(0, len(saved.blob) - 1), label="cut")])
    with pytest.raises(FormatError):
        saved.load(saved.path)


@settings(deadline=None)
@given(suffix=st.binary(min_size=1, max_size=64))
def test_load_rejects_every_suffix(saved, suffix):
    saved.path.write_bytes(saved.blob + suffix)
    with pytest.raises(FormatError, match="trailing"):
        saved.load(saved.path)


@settings(deadline=None)
@given(data=st.data())
def test_one_overwritten_header_byte_loads_or_raises_format_error(saved, data):
    header = len(saved.blob) - sum(m.nbytes for m in saved.contents().sections.values())
    at = data.draw(st.integers(0, header - 1), label="at")
    blob = bytearray(saved.blob)
    blob[at] = data.draw(st.integers(0, 255), label="byte")
    saved.path.write_bytes(bytes(blob))
    try:
        saved.load(saved.path)
    except FormatError:
        pass


def test_round_trip_through_the_container_is_exact(saved):
    saved.rewrite(saved.contents().sections.items())
    assert saved.path.read_bytes() == saved.blob


def test_load_rejects_a_duplicate_section(saved):
    sections = list(saved.contents().sections.items())
    saved.rewrite(sections + sections[-1:])
    with pytest.raises(FormatError, match="duplicate section"):
        saved.load(saved.path)


def test_load_rejects_an_unknown_section(saved):
    sections = list(saved.contents().sections.items())
    saved.rewrite(sections + [("extra", np.zeros((1, 1)))])
    with pytest.raises(FormatError, match="unknown sections.*extra"):
        saved.load(saved.path)


def test_load_rejects_a_missing_section(saved):
    sections = list(saved.contents().sections.items())
    for i, (name, _) in enumerate(sections):
        saved.rewrite(sections[:i] + sections[i + 1:])
        with pytest.raises(FormatError, match=f"{name!r} missing"):
            saved.load(saved.path)


def test_load_rejects_a_section_with_an_extra_row(saved):
    # W_x and W_h size the model, so their extra row mis-sizes another section
    sections = dict(saved.contents().sections)
    for name, m in sections.items():
        saved.rewrite({**sections, name: np.vstack([m, m[:1]])}.items())
        with pytest.raises(FormatError, match=None if name in ("fwd.W_x", "fwd.W_h")
                           else re.escape(f"section {name!r}: shape")):
            saved.load(saved.path)


@pytest.mark.parametrize("entries", [lambda chars: ["<PAD>"],
                                     lambda chars: ["<UNK>", "<PAD>"] + chars[2:]],
                         ids=["pad-only", "unk-pad-swapped"])
def test_load_rejects_a_vocab_without_pad_then_unk_first(saved, entries):
    # a one-entry vocab used to load, and segment() then indexed the missing UNK row;
    # Vocab refuses such entries, so the header is written by hand
    header = saved.header()
    header["vocab"] = entries(header["vocab"])
    saved.write_with_header(json.dumps(header).encode())
    with pytest.raises(FormatError, match="vocab starts"):
        saved.load(saved.path)


@pytest.mark.parametrize("entry", ["ab", "", "\U00020000\u0301"],
                         ids=["two", "empty", "astral-then-combining"])
def test_load_rejects_a_vocab_entry_that_is_not_one_character(saved, entry):
    # such an entry used to load, as a char_vectors row no character can reach
    header = saved.header()
    header["vocab"][3] = entry
    saved.write_with_header(json.dumps(header).encode())
    with pytest.raises(FormatError, match=f"vocab entry 3 {re.escape(repr(entry))} is not one"):
        saved.load(saved.path)


@pytest.mark.parametrize("name, shape", [("fwd.W_h", (0, 0)), ("fwd.W_x", (5, 12))],
                         ids=["hidden-0", "W_x-rows-5"])
def test_load_rejects_a_hidden_size_or_input_width_that_fits_no_model(table, tmp_path,
                                                                      name, shape):
    # hidden 0 used to reach build_model and fail there with ZeroDivisionError;
    # W_x rows must be d_char (char-only) or d_char + d_radical (4 + 3 here)
    emb = random_embeddings(build_vocab(tiny_splits().train), table, d_char=4, d_radical=3, seed=0)
    path = tmp_path / "model.bin"
    save_model(build_model(emb, hidden=3), path)
    saved = Saved(path.read_bytes(), path, None, None, (segmenter.MAGIC, segmenter.VERSION, str))
    sections = dict(saved.contents().sections)
    sections[name] = np.zeros(shape)
    saved.rewrite(sections.items())
    with pytest.raises(FormatError, match="fwd.W_x rows"):
        load_model(path, radtable=table)


@pytest.fixture(scope="module")
def checkpoint(table, tmp_path_factory):
    emb = random_embeddings(build_vocab(tiny_splits().train), table, d_char=4, d_radical=3, seed=0)
    path = tmp_path_factory.mktemp("checkpoint") / "model.bin"
    save_model(build_model(emb, hidden=5), path)
    return Saved(path.read_bytes(), path, partial(load_model, radtable=table), save_model,
                 (segmenter.MAGIC, segmenter.VERSION, str))


@settings(deadline=None)
@given(data=st.data())
def test_one_overwritten_float_loads_and_decodes_or_raises_format_error(saved, data):
    # every weight is cast to float32 to decode, so a float of the data either
    # fits float32's range, and the model (for an embedding file, one built on
    # it) segments, or the load fails
    floats = sum(m.size for m in saved.contents().sections.values())
    at = len(saved.blob) - 8 * floats + 8 * data.draw(st.integers(0, floats - 1), label="at")
    value = data.draw(st.floats(), label="value")
    blob = bytearray(saved.blob)
    struct.pack_into("<d", blob, at, value)
    saved.path.write_bytes(bytes(blob))
    fits = abs(value) <= float(np.finfo(np.float32).max)
    try:
        loaded = saved.load(saved.path)
    except FormatError:
        assert not fits
        return
    assert fits
    model = build_model(loaded, hidden=3) if saved.spec[0] == embedding.MAGIC else loaded
    text = "天地人山水火雲" * 3
    assert segmenter.segment(model, text).replace("/", "") == text


def test_load_rejects_a_section_of_no_columns(saved):
    # take_all's range check passes an empty section over, so the loader's own
    # dimension check refuses it, not a numpy reduction error
    sections = dict(saved.contents().sections)
    sections["emb.radical_vectors"] = np.zeros((len(sections["emb.radical_vectors"]), 0))
    saved.rewrite(sections.items())
    with pytest.raises(FormatError, match="d_radical|fwd.W_x rows"):
        saved.load(saved.path)


def test_a_checkpoint_with_its_sections_reversed_loads_in_weight_order(checkpoint):
    sections = list(checkpoint.contents().sections.items())
    checkpoint.rewrite(sections[::-1])
    model = checkpoint.load(checkpoint.path)
    assert list(model.weights) == [name for name, _ in sections]
    assert all(np.array_equal(model.weights[name], m) for name, m in sections)
    save_model(model, checkpoint.path)
    assert checkpoint.path.read_bytes() == checkpoint.blob


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=20)
# values closer to a valid header's: vocab entries, and section entries of a
# name and numbers
entry_lists = st.lists(st.sampled_from(["<PAD>", "<UNK>", "天"]) | st.text(max_size=2))
section_lists = st.lists(st.lists(st.sampled_from(["emb.char_vectors", "fwd.b"])
                                  | st.integers(-1, 2**33) | st.booleans() | st.floats(),
                                  max_size=4))


@settings(deadline=None)
@given(data=st.data())
def test_any_json_header_loads_or_raises_format_error(saved, data):
    # the valid file's header with one key's value replaced, or a whole new header
    header = saved.header()
    key = data.draw(st.sampled_from(["field", "vocab", "sections", None]), label="key")
    if key is None:
        header = data.draw(json_values, label="header")
    else:
        header[key] = data.draw(json_values | entry_lists | section_lists, label=key)
    saved.write_with_header(json.dumps(header).encode())
    try:
        saved.load(saved.path)
    except FormatError:
        pass


def test_load_rejects_a_deeply_nested_header(saved):
    saved.write_with_header(b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(FormatError, match="not JSON"):
        saved.load(saved.path)


def test_load_rejects_a_header_that_is_not_utf8(saved):
    saved.write_with_header(json.dumps(saved.header()).encode().replace(b"<PAD>", b"<\xffPAD>"))
    with pytest.raises(FormatError, match="UTF-8"):
        saved.load(saved.path)


@pytest.mark.parametrize("fault, match", [("field-true", "format field is a bool"),
                                          ("rows-true", "section 0 is not"),
                                          ("rows-float", "section 0 is not"),
                                          ("cols-negative", "section 0 is not"),
                                          ("cols-2**64", "is not \\[name")])
def test_load_rejects_a_field_or_shape_of_the_wrong_json_type(saved, fault, match):
    # a bool is no window and no row count, though Python's bool is an int
    header = saved.header()
    if fault == "field-true":
        header["field"] = True
    elif fault == "rows-true":
        header["sections"][0][1] = True
    elif fault == "rows-float":
        header["sections"][0][1] = float(header["sections"][0][1])
    elif fault == "cols-negative":
        header["sections"][0][2] = -1
    else:  # an extra empty section: the data still fits, but numpy takes no such shape
        header["sections"].append(["extra", 0, 2**64])
    saved.write_with_header(json.dumps(header).encode())
    with pytest.raises(FormatError, match=match):
        saved.load(saved.path)


def test_a_file_that_loads_saves_again(saved):
    # a JSON header can escape a lone surrogate, which UTF-8 cannot encode
    header = saved.header()
    header["vocab"][2] = "\ud800"
    saved.write_with_header(json.dumps(header).encode())
    loaded = saved.load(saved.path)
    saved.save(loaded, saved.path)
    assert saved.load(saved.path).vocab == loaded.vocab
    assert loaded.vocab.index_to_char[2] == "\ud800"
