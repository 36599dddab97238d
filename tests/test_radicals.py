"""Radical table parsing and lookup semantics."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from judou.radicals import (N_RADICALS, NO_RADICAL, RadicalTableError,
                            default_table, load_radical_table, radical_char,
                            radical_index, radical_of)

# Unihan primary radicals, written down from the dictionary as an independent
# oracle: 月/肉 body-part characters, 雲/雨/云 weather characters, and the
# radical characters themselves.
REFERENCE_CHARS = [
    ("腿", 130), ("膊", 130), ("肉", 130), ("肝", 130), ("肺", 130), ("脚", 130),
    ("雲", 173), ("雨", 173), ("云", 7), ("月", 74),
]

# 50 same-radical pairs with their Unihan radical id (independent oracle:
# values written from the dictionary, not read back from the table).
SAME_RADICAL_PAIRS = [
    ("江", "河", 85), ("湖", "海", 85), ("波", "流", 85), ("淺", "深", 85),
    ("清", "淡", 85), ("詩", "語", 149), ("說", "話", 149), ("論", "議", 149),
    ("訓", "誦", 149), ("記", "評", 149), ("松", "柏", 75), ("林", "森", 75),
    ("桃", "李", 75), ("樹", "枝", 75), ("銅", "鐵", 167), ("銀", "錢", 167),
    ("鋼", "針", 167), ("悲", "思", 61), ("情", "性", 61), ("愛", "恩", 61),
    ("草", "花", 140), ("蘭", "菊", 140), ("駒", "騎", 187), ("駿", "馬", 187),
    ("鮮", "鯉", 195), ("蛇", "蟲", 142), ("砂", "硬", 112), ("筆", "箭", 118),
    ("雪", "雷", 173), ("霜", "露", 173), ("飯", "餅", 184), ("酒", "醉", 164),
    ("炎", "燒", 86), ("照", "烈", 86), ("絲", "線", 120), ("紅", "紫", 120),
    ("開", "閉", 169), ("間", "閃", 169), ("吃", "喝", 30), ("唱", "吟", 30),
    ("地", "堂", 32), ("峰", "嶺", 46), ("媽", "妹", 38), ("打", "拉", 64),
    ("跳", "路", 157), ("朋", "期", 74), ("肝", "肺", 130), ("明", "時", 72),
    ("財", "貨", 154), ("珠", "理", 96),
]


# lines with one malformed field each, and the start of the error naming it
MALFORMED_FIELDS = {
    "hex-prefix": ("0x4E00\t1", "bad hex codepoint '0x4E00'"),
    "underscore": ("4E_01\t2", "bad hex codepoint '4E_01'"),
    "leading-space": (" 4E02\t3", "bad hex codepoint ' 4E02'"),
    "plus-sign": ("4E03\t+4", r"bad radical id '\+4'"),
    "lowercase-hex": ("4e04\t5", "bad hex codepoint '4e04'"),
    "arabic-indic-digit": ("4E05\t\u0666", "bad radical id '\u0666'"),
}

# a bad line with a valid codepoint must not repeat one already in the table
CODEPOINTS_BUT_THE_BAD_ONES = st.integers(0, 0x10FFFF).filter(lambda cp: not 0x4E00 <= cp <= 0x4E05)


class TestLoadRadicalTable:
    def test_single_entry(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("817F\t130\n", encoding="utf-8")
        t = load_radical_table(p)
        assert radical_of(t, "腿") == 130

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# header\n\n817F\t130\n", encoding="utf-8")
        assert len(load_radical_table(p)) == 1

    def test_empty_file_gives_empty_table(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("", encoding="utf-8")
        t = load_radical_table(p)
        assert len(t) == 0
        assert radical_of(t, "腿") is None

    def test_malformed_hex_names_line(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("XYZ\t7\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":1:"):
            load_radical_table(p)

    def test_missing_tab_rejected(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("817F 130\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":1:"):
            load_radical_table(p)

    @pytest.mark.parametrize("rid, message", [
        pytest.param(0, "radical id 0 outside 1..214", id="0"),
        pytest.param(215, "radical id 215 outside 1..214", id="215"),
        pytest.param(-3, "bad radical id '-3'", id="-3"),  # the sign is not a digit
    ])
    def test_radical_id_out_of_range(self, tmp_path, rid, message):
        p = tmp_path / "t.tsv"
        p.write_text(f"4E00\t{rid}\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=f":1: {message}"):
            load_radical_table(p)

    def test_repeated_codepoint_rejected(self, tmp_path):
        # the second line used to overwrite the first silently
        p = tmp_path / "t.tsv"
        p.write_text("4E00\t1\n4E01\t1\n4E00\t2\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":3: repeated codepoint 4E00"):
            load_radical_table(p)

    @pytest.mark.parametrize("hexcp, message", [
        # "-4E01" once loaded as the key -19969; its sign is not a hex digit
        pytest.param("-4E01", "bad hex codepoint '-4E01'", id="-4E01"),
        pytest.param("110000", "codepoint '110000' outside 0..10FFFF", id="110000"),
        pytest.param("FFFFFFFF", "codepoint 'FFFFFFFF' outside 0..10FFFF", id="FFFFFFFF"),
    ])
    def test_codepoint_out_of_range_rejected(self, tmp_path, hexcp, message):
        p = tmp_path / "t.tsv"
        p.write_text(f"4E00\t1\n{hexcp}\t3\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=f":2: {message}"):
            load_radical_table(p)

    @pytest.mark.parametrize("line, message", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS)
    def test_only_uppercase_hex_and_ascii_decimal_fields_load(self, tmp_path, line, message):
        # int() took all of these: a 0x prefix, an underscore, a leading
        # space, a sign, lowercase hex and non-ASCII digits
        p = tmp_path / "t.tsv"
        p.write_text(f"4E10\t1\n{line}\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=f":2: {message}"):
            load_radical_table(p)

    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entries=st.lists(st.tuples(CODEPOINTS_BUT_THE_BAD_ONES, st.integers(1, N_RADICALS)),
                            max_size=8, unique_by=lambda e: e[0]),
           comments=st.lists(st.sampled_from(["", "# note", "#"]), max_size=3),
           crlf=st.booleans(), bad=st.sampled_from(list(MALFORMED_FIELDS.values())), data=st.data())
    def test_one_malformed_line_in_a_valid_table_is_named(self, tmp_path, entries, comments,
                                                          crlf, bad, data):
        lines = [f"{cp:X}\t{rid}" for cp, rid in entries] + comments
        lines = data.draw(st.permutations(lines))
        p = tmp_path / "t.tsv"
        p.write_bytes(("\r\n" if crlf else "\n").join(lines).encode())
        assert load_radical_table(p).entries == dict(entries)
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, bad[0])
        p.write_bytes(("\r\n" if crlf else "\n").join(lines).encode())
        with pytest.raises(RadicalTableError, match=f":{at + 1}: {bad[1]}"):
            load_radical_table(p)

    def test_line_number_in_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("4E00\t1\n4E01\tbad\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":2:"):
            load_radical_table(p)


class TestDefaultTable:
    def test_covers_the_basic_block(self, table):
        assert len(table) > 20000

    def test_ids_in_range_and_all_radicals_used(self, table):
        ids = set(table.entries.values())
        assert ids == set(range(1, N_RADICALS + 1))

    @pytest.mark.parametrize("ch,rid", REFERENCE_CHARS)
    def test_reference_characters(self, table, ch, rid):
        assert radical_of(table, ch) == rid

    @pytest.mark.parametrize("a,b,rid", SAME_RADICAL_PAIRS)
    def test_same_radical_pairs(self, table, a, b, rid):
        assert radical_of(table, a) == rid
        assert radical_of(table, b) == rid

    def test_compatibility_ideographs_take_their_nfkc_radical(self, table):
        assert radical_of(table, "\uf900") == 151  # NFKC: U+8C48 豈, radical 豆
        assert radical_of(table, "\uf900") == radical_of(table, "豈")
        compat = [cp for cp in table.entries if 0xF900 <= cp <= 0xFAFF]
        assert len(compat) == 450

    def test_loaded_twice_is_cached(self):
        assert default_table() is default_table()


class TestLookups:
    def test_radical_index_sentinel(self, table):
        assert radical_index(table, "□") == NO_RADICAL
        assert radical_index(table, ",") == NO_RADICAL
        assert radical_index(table, "a") == NO_RADICAL

    def test_radical_of_absent_is_none(self, table):
        assert radical_of(table, "a") is None

    @given(st.characters())
    def test_index_always_in_range(self, ch):
        assert 0 <= radical_index(default_table(), ch) <= N_RADICALS

    @given(st.characters(min_codepoint=0x4E00, max_codepoint=0x9FA5))
    def test_of_and_index_agree(self, ch):
        t = default_table()
        rid = radical_of(t, ch)
        assert rid is not None
        assert rid == radical_index(t, ch)

    def test_radical_char_round_trip(self, table):
        # the section-head character of each radical maps back to its own id
        for rid in (1, 85, 130, 149, 173, 214):
            import unicodedata
            head = unicodedata.normalize("NFKC", radical_char(rid))
            assert radical_of(table, head) == rid

    def test_radical_char_rejects_bad_id(self):
        with pytest.raises(ValueError):
            radical_char(0)
        with pytest.raises(ValueError):
            radical_char(215)
