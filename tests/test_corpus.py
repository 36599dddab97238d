"""Tagging scheme, cleaning, chunking, splitting, vocab, and dataset files."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from judou.corpus import (DEFAULT_PUNCT, DEFAULT_STOPS, UNSURE_CHAR, LabeledSequence,
                          PunctConfig, Unit, Vocab, boundary_positions,
                          build_vocab, chunk_units, clean_unsure, normalize_text,
                          read_units, split_corpus, tags_to_text, text_to_tags,
                          write_units)
from judou.embedding import load_embeddings, save_embeddings
from judou.synthetic import random_embeddings
import oracles
from oracles import is_valid_tag_sequence

han = st.characters(min_codepoint=0x4E00, max_codepoint=0x4E2F)
han_text = st.text(alphabet=han, max_size=40)
# normalized punctuated text: non-empty sentences separated by single stops
punctuated = st.lists(
    st.tuples(st.text(alphabet=han, min_size=1, max_size=8), st.sampled_from("。，？！")),
    max_size=8,
).map(lambda parts: "".join(s + p for s, p in parts))


class TestPunctConfig:
    def test_default_keeps_both_widths(self):
        assert "。" in DEFAULT_PUNCT.stops and "?" in DEFAULT_PUNCT.stops

    def test_empty_stop_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PunctConfig(stops=frozenset())

    def test_han_stop_rejected(self):
        with pytest.raises(ValueError, match="Han"):
            PunctConfig(stops=frozenset("。天"))


    def test_multi_character_stop_rejected(self):
        with pytest.raises(ValueError, match="single characters"):
            PunctConfig(stops=frozenset({"。", "--"}))


# ---------------------------------------------------------------------------
# the regular-expression rules against the character loops they replaced

# Han (BMP and astral), □, every default stop, line ends, a BOM, Latin,
# digits, and punctuation that is not a default stop
mixed_text = st.text(alphabet=st.sampled_from(
    [*"天地人山水火㐀豈", "\U00020001", "□", *sorted(DEFAULT_STOPS),
     "\r", "\n", "\ufeff", *"abXYZ0129", "、", "》", "-", "]", "^", "\\"]), max_size=40)
# custom stop sets: any mix down to a single stop, and sets holding all of the
# characters that are special in a regex class, '□' with them
SPECIAL_STOPS = "-]^\\□"
custom_punct = st.one_of(
    st.sets(st.sampled_from(SPECIAL_STOPS + "。,!a\n"), min_size=1),
    st.sets(st.sampled_from("。,!a\n")).map(lambda stops: stops | set(SPECIAL_STOPS)),
).map(lambda stops: PunctConfig(stops=frozenset(stops)))
any_punct = st.one_of(st.just(DEFAULT_PUNCT), custom_punct)


class TestRulesEqualTheirOracles:
    @settings(max_examples=300)
    @given(mixed_text, any_punct)
    def test_normalize_text(self, text, punct):
        assert normalize_text(text, punct) == oracles.normalize_text(text, punct)

    @settings(max_examples=300)
    @given(mixed_text, any_punct)
    def test_text_to_tags(self, text, punct):
        assert text_to_tags(text, punct) == oracles.text_to_tags(text, punct)

    @settings(max_examples=300)
    @given(mixed_text, any_punct, st.integers(0, 3))
    def test_clean_unsure(self, text, punct, max_run):
        assert clean_unsure(text, max_run, punct) == oracles.clean_unsure(text, max_run, punct)

    @settings(max_examples=300)
    @given(mixed_text.flatmap(lambda chars: st.tuples(
        st.just(chars), st.text(alphabet="BEO", min_size=len(chars), max_size=len(chars)))),
        st.sampled_from(["/", "|", "", "。"]))
    def test_tags_to_text(self, chars_tags, separator):
        seq = LabeledSequence(*chars_tags)
        assert tags_to_text(seq, separator) == oracles.tags_to_text(seq, separator)

    def test_custom_stops_special_in_a_class(self):
        punct = PunctConfig(stops=frozenset(SPECIAL_STOPS))
        text = "天-]地^^人\\□□水a-火"
        assert normalize_text(text, punct) == oracles.normalize_text(text, punct) == "天-地^人\\水-火"


class TestNormalizeText:
    def test_analects_fixture(self):
        punct = PunctConfig(stops=frozenset(",?"))
        raw = "子曰:「學而時習之, 不亦說乎?」"
        assert normalize_text(raw, punct) == "子曰學而時習之,不亦說乎?"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_no_han_content(self):
        assert normalize_text("abc") == ""

    def test_stop_runs_collapse_to_first(self):
        assert normalize_text("天。。地") == "天。地"
        assert normalize_text("天。，地") == "天。地"

    def test_keeps_unsure_placeholder(self):
        assert normalize_text("天□地") == "天□地"

    @given(st.text(max_size=60))
    def test_output_alphabet(self, raw):
        out = normalize_text(raw)
        allowed = DEFAULT_PUNCT.stops
        for ch in out:
            assert ch in allowed or ch == "□" or 0x3400 <= ord(ch) <= 0x2EBEF


class TestTextToTags:
    def test_confucius_sentence(self):
        seq = text_to_tags("三人行,必有我師焉。")
        assert seq.chars == "三人行必有我師焉"
        assert seq.tags == "BOEBOOOE"

    def test_single_char_sentence_is_e(self):
        assert text_to_tags("天。").tags == "E"

    def test_trailing_incomplete_sentence(self):
        assert text_to_tags("天地").tags == "BO"
        assert text_to_tags("天").tags == "B"

    def test_empty(self):
        seq = text_to_tags("")
        assert seq.chars == "" and seq.tags == ""

    @given(punctuated)
    def test_grammar_invariant(self, text):
        assert is_valid_tag_sequence(text_to_tags(text).tags)

    @given(punctuated, st.text(alphabet=han, max_size=5))
    def test_grammar_with_open_tail(self, text, tail):
        assert is_valid_tag_sequence(text_to_tags(text + tail).tags)


class TestTagsToText:
    def test_confucius_sentence(self):
        seq = LabeledSequence("三人行必有我師焉", "BOEBOOOE")
        assert tags_to_text(seq, "/") == "三人行/必有我師焉"

    def test_all_o_unchanged(self):
        assert tags_to_text(LabeledSequence("天地人", "OOO")) == "天地人"

    def test_empty(self):
        assert tags_to_text(LabeledSequence("", "")) == ""

    def test_no_separator_after_final_e(self):
        assert tags_to_text(LabeledSequence("天地", "BE"), "/") == "天地"

    @given(punctuated, st.text(alphabet=han, max_size=5))
    def test_round_trip_places_separators_at_stops(self, text, tail):
        """Boundary round trip: separators land exactly where stops were."""
        text = text + tail
        got = tags_to_text(text_to_tags(text), "/")
        expected = "".join("/" if ch in DEFAULT_PUNCT.stops else ch for ch in text)
        assert got == expected.rstrip("/")


class TestBoundaryPositions:
    def test_positions_are_one_based_after_each_e(self):
        assert boundary_positions("BOEBOOOE") == {3, 8}
        assert boundary_positions("EEB") == {1, 2}
        assert boundary_positions("BO") == set()


class TestCleanUnsure:
    def test_six_run_drops_sentence_with_its_stop(self):
        assert clean_unsure("甲□□□□□□乙,丙。") == "丙。"

    def test_exactly_five_run_kept(self):
        text = "甲□□□□□乙。"
        assert clean_unsure(text) == text

    def test_no_placeholder_identity(self):
        assert clean_unsure("天地。人山。") == "天地。人山。"

    def test_unclosed_tail_also_filtered(self):
        assert clean_unsure("天。□□□□□□") == "天。"

    @given(st.text(alphabet=list("天地□。，"), max_size=40))
    def test_idempotent(self, text):
        once = clean_unsure(text)
        assert clean_unsure(once) == once

    @given(st.text(alphabet=list("天地□。"), max_size=40), st.integers(0, 4))
    def test_survivors_have_no_long_run(self, text, max_run):
        out = clean_unsure(text, max_run=max_run)
        assert "□" * (max_run + 1) not in out


class TestChunkUnits:
    def test_250_chars_split_100_100_50(self):
        seq = text_to_tags("天地。" * 125)  # 250 chars after stop removal
        units = chunk_units(seq, 100)
        assert [len(u.seq) for u in units] == [100, 100, 50]

    def test_exact_fit_single_unit(self):
        seq = LabeledSequence("天" * 100, "O" * 100)
        assert len(chunk_units(seq, 100)) == 1

    def test_empty_sequence(self):
        assert chunk_units(LabeledSequence("", "")) == []

    def test_unit_size_below_two_rejected(self):
        with pytest.raises(ValueError, match="unit_size"):
            chunk_units(LabeledSequence("天地", "BE"), 1)

    def test_offsets_recorded(self):
        seq = LabeledSequence("天地人山水火" * 3, "O" * 18)
        units = chunk_units(seq, 5, doc_id="doc")
        assert [u.offset for u in units] == [0, 5, 10, 15]
        assert all(u.doc_id == "doc" for u in units)

    @given(han_text, st.integers(2, 9))
    def test_concatenation_identity(self, chars, size):
        seq = LabeledSequence(chars, "O" * len(chars))
        units = chunk_units(seq, size)
        assert "".join(u.seq.chars for u in units) == chars
        assert "".join(u.seq.tags for u in units) == seq.tags
        assert all(len(u.seq) <= size for u in units)


def _units(n):
    return [Unit(seq=LabeledSequence("天", "B"), offset=i) for i in range(n)]


class TestSplitCorpus:
    @pytest.mark.parametrize("n,sizes", [(8, (4, 2, 2)), (7, (5, 1, 1)),
                                         (0, (0, 0, 0)), (5, (3, 1, 1))])
    def test_floor_rule_remainder_to_train(self, n, sizes):
        s = split_corpus(_units(n), seed=1)
        assert (len(s.train), len(s.valid), len(s.test)) == sizes

    @given(st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_partition_property(self, n, seed):
        units = _units(n)
        s = split_corpus(units, seed)
        combined = s.train + s.valid + s.test
        assert sorted(u.offset for u in combined) == list(range(n))

    def test_same_seed_identical(self):
        a = split_corpus(_units(20), seed=7)
        b = split_corpus(_units(20), seed=7)
        assert [u.offset for u in a.train] == [u.offset for u in b.train]
        assert [u.offset for u in a.test] == [u.offset for u in b.test]

    def test_seed_changes_order(self):
        a = split_corpus(_units(40), seed=0)
        b = split_corpus(_units(40), seed=1)
        assert [u.offset for u in a.train] != [u.offset for u in b.train]

    def test_seed_recorded(self):
        assert split_corpus(_units(4), seed=9).seed == 9


class TestBuildVocab:
    def test_counts_and_specials(self):
        units = [Unit(seq=LabeledSequence("天地人", "BOE"))]
        v = build_vocab(units)
        assert v.size == 5
        assert v.index_to_char[:2] == ["<PAD>", "<UNK>"]

    def test_order_frequency_desc_then_codepoint(self):
        units = [Unit(seq=LabeledSequence("天地地人", "BOOE"))]
        v = build_vocab(units)
        # 地 twice; 人 (U+4EBA) sorts before 天 (U+5929) on the tie
        assert v.index_to_char[2:] == ["地", "人", "天"]

    def test_encode_unknown_is_unk(self):
        v = build_vocab([Unit(seq=LabeledSequence("天", "B"))])
        assert v.encode("天") == 2
        assert v.encode("魚") == Vocab.UNK


class TestDatasetFiles:
    def test_units_round_trip(self, tmp_path):
        units = [Unit(seq=LabeledSequence("天地人", "BOE")),
                 Unit(seq=LabeledSequence("山水", "BO"))]
        p = tmp_path / "u.tsv"
        write_units(units, p)
        back = read_units(p)
        assert [(u.seq.chars, u.seq.tags) for u in back] == \
               [(u.seq.chars, u.seq.tags) for u in units]

    def test_malformed_unit_line_names_position(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("天地\tBE\n天地\tBEE\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2:"):
            read_units(p)

    def test_bad_tag_letter_rejected(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("天地\tBX\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            read_units(p)

    def test_empty_unit_rejected(self, tmp_path):
        p = tmp_path / "u.tsv"
        p.write_text("天地\tBE\n\t\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2: malformed unit line"):
            read_units(p)


# line-shaped bytes: separators, line ends, tag letters, a Han character and a non-UTF-8 byte
line_bytes = st.lists(st.sampled_from([b"\t", b"\r", b"\n", b"B", b"E", b"O",
                                       "天".encode(), b"\xff"])).map(b"".join)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "file.txt"


@pytest.mark.parametrize("read", [read_units])
@settings(deadline=None)
@given(content=st.binary() | line_bytes)
def test_dataset_loaders_return_or_raise_value_error(read, fuzz_path, content):
    fuzz_path.write_bytes(content)
    try:
        read(fuzz_path)
    except ValueError:
        pass


# distinct one-character entries: basic-block Han, an extension B Han, □ and Latin letters
vocab_entries = st.lists(st.one_of(st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
                                   st.sampled_from(["\U00020001", UNSURE_CHAR]),
                                   st.characters(categories=("Lu", "Ll"), max_codepoint=0x24F)),
                         unique=True, max_size=30)


@pytest.fixture(scope="module")
def vocab_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("vocab")


@settings(deadline=None, max_examples=50)
@given(chars=vocab_entries)
def test_vocab_is_the_same_from_every_source(chars, table, vocab_dir):
    v = Vocab([*Vocab.RESERVED, *chars])
    assert list(v.char_to_index) == v.index_to_char[2:]
    assert all(v.index_to_char[i] == ch for ch, i in v.char_to_index.items())
    save_embeddings(random_embeddings(v, table, d_char=1, d_radical=1, seed=0),
                    vocab_dir / "emb.bin")
    assert load_embeddings(vocab_dir / "emb.bin").vocab == v


class TestLabeledSequence:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            LabeledSequence("天地", "B")

    def test_len(self):
        assert len(LabeledSequence("天地", "BE")) == 2
