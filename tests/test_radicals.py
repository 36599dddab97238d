"""Radical table parsing and lookup semantics."""

import hashlib
import importlib.util
import re
import struct
import unicodedata
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from judou.radicals import (N_RADICALS, NO_RADICAL, RadicalTableError,
                            default_table, load_radical_table, radical_char,
                            radical_index, radical_of)

ROOT = Path(__file__).resolve().parent.parent
TABLE_PATH = ROOT / "src" / "judou" / "data" / "kangxi_radicals.tsv"
GENERATOR_PATH = ROOT / "scripts" / "build_radical_table.py"
# sha256 of the bundled mapping's (codepoint, id) pairs as little-endian u32
BUNDLED_SHA256 = "35b54587db4e2a7f0f2591107335f74b5eb1ed555e79d42ee5627535d6cc6537"

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


# runs with one malformed field each, and the error naming it
MALFORMED_FIELDS = {
    "hex-prefix": ("0x4E00\t4E00\t1", "bad hex codepoint '0x4E00'"),
    "underscore": ("4E01\t4E_01\t2", "bad hex codepoint '4E_01'"),
    "leading-space": (" 4E02\t4E02\t3", "bad hex codepoint ' 4E02'"),
    "plus-sign": ("4E03\t4E03\t+4", "bad radical id '+4'"),
    "lowercase-hex": ("4E04\t4e04\t5", "bad hex codepoint '4e04'"),
    "arabic-indic-digit": ("4E05\t4E05\t\u0666", "bad radical id '\u0666'"),
}

# lines that are wrong wherever they stand, and the error naming them; a
# surrogate escape stands for a byte that is not UTF-8
BAD_LINES = {
    **MALFORMED_FIELDS,
    "not-hex": ("XYZ\tXYZ\t7", "bad hex codepoint 'XYZ'"),
    "empty-last": ("4E00\t\t7", "bad hex codepoint ''"),
    "no-tab": ("817F 817F 130", "expected 'FIRST<TAB>LAST<TAB>id', got '817F 817F 130'"),
    "one-codepoint-form": ("817F\t130", "expected 'FIRST<TAB>LAST<TAB>id'"),
    "four-fields": ("817F\t817F\t130\t1", "expected 'FIRST<TAB>LAST<TAB>id'"),
    "word-id": ("4E01\t4E01\tbad", "bad radical id 'bad'"),
    "id-0": ("4E00\t4E00\t0", "radical id 0 outside 1..214"),
    "id-215": ("4E00\t4E00\t215", "radical id 215 outside 1..214"),
    "id-minus-3": ("4E00\t4E00\t-3", "bad radical id '-3'"),  # the sign is not a digit
    # int() refuses decimal strings of more than 4300 digits
    "huge-id": ("4E00\t4E00\t" + "9" * 5000, f"radical id {'9' * 5000} outside 1..214"),
    "signed-first": ("-4E01\t4E01\t3", "bad hex codepoint '-4E01'"),
    "first-110000": ("110000\t110000\t3", "codepoint '110000' outside 0..10FFFF"),
    "last-110000": ("10FFFF\t110000\t3", "codepoint '110000' outside 0..10FFFF"),
    "last-FFFFFFFF": ("4E00\tFFFFFFFF\t3", "codepoint 'FFFFFFFF' outside 0..10FFFF"),
    "reversed": ("4E05\t4E00\t1", "reversed run 4E05..4E00"),
    "not-utf8": ("# \udcff", "byte 0xff is not UTF-8"),
}

NOTES = ["", "# note", "#", "# 4E00\t4E00\t1"]


@st.composite
def run_lists(draw, min_runs=0, max_runs=8):
    """Sorted disjoint (first, last, id) runs; neighbours may touch and share an id."""
    cp = draw(st.integers(0, 0x10FFFF - 40 * max_runs))
    runs = []
    for _ in range(draw(st.integers(min_runs, max_runs))):
        cp += draw(st.integers(0, 20))
        length = draw(st.integers(1, 20))
        runs.append((cp, cp + length - 1, draw(st.integers(1, N_RADICALS))))
        cp += length
    return runs


def run_lines(runs) -> list:
    return [f"{first:04X}\t{last:04X}\t{rid}" for first, last, rid in runs]


def expand(runs) -> dict:
    return {cp: rid for first, last, rid in runs for cp in range(first, last + 1)}


def interleave(data, lines) -> list:
    """lines with comment and blank lines drawn into them."""
    lines = list(lines)
    for note in data.draw(st.lists(st.sampled_from(NOTES), max_size=3)):
        lines.insert(data.draw(st.integers(0, len(lines))), note)
    return lines


def write_table(path, lines, crlf=False, final_newline=True):
    eol = "\r\n" if crlf else "\n"
    text = eol.join(lines) + (eol if final_newline and lines else "")
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def pairs_sha256(mapping) -> str:
    """The mapping's hash, packed with struct rather than numpy."""
    packed = b"".join(struct.pack("<II", cp, rid) for cp, rid in sorted(mapping.items()))
    return hashlib.sha256(packed).hexdigest()


class TestLoadRadicalTable:
    def test_single_entry(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("817F\t817F\t130\n", encoding="utf-8")
        t = load_radical_table(p)
        assert radical_of(t, "腿") == 130
        assert len(t) == 1

    def test_a_run_covers_first_to_last(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("4E00\t4E02\t1\n4E03\t4E03\t2\n", encoding="utf-8")
        assert load_radical_table(p).entries == {0x4E00: 1, 0x4E01: 1, 0x4E02: 1, 0x4E03: 2}

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# header\n\n817F\t817F\t130\n", encoding="utf-8")
        assert len(load_radical_table(p)) == 1

    def test_empty_file_gives_empty_table(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("", encoding="utf-8")
        t = load_radical_table(p)
        assert len(t) == 0
        assert radical_of(t, "腿") is None

    def test_malformed_hex_names_line(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("XYZ\tXYZ\t7\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":1:"):
            load_radical_table(p)

    def test_missing_tab_rejected(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("817F 817F 130\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":1:"):
            load_radical_table(p)

    @pytest.mark.parametrize("rid, message", [
        pytest.param(0, "radical id 0 outside 1..214", id="0"),
        pytest.param(215, "radical id 215 outside 1..214", id="215"),
        pytest.param(-3, "bad radical id '-3'", id="-3"),  # the sign is not a digit
    ])
    def test_radical_id_out_of_range(self, tmp_path, rid, message):
        p = tmp_path / "t.tsv"
        p.write_text(f"4E00\t4E00\t{rid}\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=f":1: {message}"):
            load_radical_table(p)

    def test_repeated_codepoint_rejected(self, tmp_path):
        # a later run that repeats a codepoint used to overwrite it silently
        p = tmp_path / "t.tsv"
        p.write_text("4E00\t4E01\t1\n4E02\t4E02\t1\n4E01\t4E01\t2\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":3: run starts at 4E01, not after 4E02"):
            load_radical_table(p)

    @pytest.mark.parametrize("hexcp, message", [
        # "-4E01" once loaded as the key -19969; its sign is not a hex digit
        pytest.param("-4E01", "bad hex codepoint '-4E01'", id="-4E01"),
        pytest.param("110000", "codepoint '110000' outside 0..10FFFF", id="110000"),
        pytest.param("FFFFFFFF", "codepoint 'FFFFFFFF' outside 0..10FFFF", id="FFFFFFFF"),
    ])
    def test_codepoint_out_of_range_rejected(self, tmp_path, hexcp, message):
        p = tmp_path / "t.tsv"
        p.write_text(f"4E00\t4E00\t1\n4E01\t{hexcp}\t3\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=f":2: {message}"):
            load_radical_table(p)

    @pytest.mark.parametrize("line, message", MALFORMED_FIELDS.values(), ids=MALFORMED_FIELDS)
    def test_only_uppercase_hex_and_ascii_decimal_fields_load(self, tmp_path, line, message):
        # int() took all of these: a 0x prefix, an underscore, a leading
        # space, a sign, lowercase hex and non-ASCII digits
        p = tmp_path / "t.tsv"
        p.write_text(f"4E10\t4E10\t1\n{line}\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=f":2: {re.escape(message)}"):
            load_radical_table(p)

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        # a UnicodeDecodeError with no line number escaped the loader
        p = tmp_path / "t.tsv"
        p.write_bytes(b"4E00\t4E00\t1\n# \xff\n")
        with pytest.raises(RadicalTableError, match=r":2: byte 0xff is not UTF-8"):
            load_radical_table(p)

    def test_leading_zeros_are_allowed(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text(f"04E00\t04E01\t{'0' * 5000}7\n", encoding="utf-8")
        assert load_radical_table(p).entries == {0x4E00: 7, 0x4E01: 7}

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=run_lists(), crlf=st.booleans(), final_newline=st.booleans(), data=st.data())
    def test_valid_runs_load_to_their_expansion(self, tmp_path, runs, crlf, final_newline, data):
        p = write_table(tmp_path / "t.tsv", interleave(data, run_lines(runs)), crlf, final_newline)
        t = load_radical_table(p)
        assert t.entries == expand(runs)
        assert list(t.entries) == sorted(t.entries)

    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=run_lists(), crlf=st.booleans(), data=st.data())
    def test_one_malformed_line_in_a_valid_table_is_named(self, tmp_path, runs, crlf, data):
        lines = interleave(data, run_lines(runs))
        for bad, message in BAD_LINES.values():
            at = data.draw(st.integers(0, len(lines)))
            p = write_table(tmp_path / "t.tsv", lines[:at] + [bad] + lines[at:], crlf)
            with pytest.raises(RadicalTableError, match=f":{at + 1}: {re.escape(message)}"):
                load_radical_table(p)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=run_lists(min_runs=1), crlf=st.booleans(),
           overlapping=st.booleans(), data=st.data())
    def test_a_run_that_does_not_follow_the_previous_one_is_named(self, tmp_path, runs, crlf,
                                                                 overlapping, data):
        k = data.draw(st.integers(1, len(runs)))  # the bad run comes after runs[k - 1]
        first, last, _ = runs[k - 1]
        if overlapping:
            a = data.draw(st.integers(first, last))
            b = data.draw(st.integers(a, 0x10FFFF))
        else:  # wholly before the previous run
            assume(first > 0)
            a = data.draw(st.integers(0, first - 1))
            b = data.draw(st.integers(a, first - 1))
        bad = f"{a:04X}\t{b:04X}\t{data.draw(st.integers(1, N_RADICALS))}"
        lines = interleave(data, run_lines(runs))
        run_rows = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
        at = run_rows[k - 1] + 1
        lines.insert(at, bad)
        p = write_table(tmp_path / "t.tsv", lines, crlf)
        with pytest.raises(RadicalTableError,
                           match=f":{at + 1}: run starts at {a:04X}, not after {last:04X}"):
            load_radical_table(p)

    def test_line_number_in_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("4E00\t4E00\t1\n4E01\t4E01\tbad\n", encoding="utf-8")
        with pytest.raises(RadicalTableError, match=r":2:"):
            load_radical_table(p)


class TestTableHash:
    """sha256 names the mapping, so checkpoints survive re-encoding the file."""

    RUNS = [(0x4E00, 0x4E05, 1), (0x4E06, 0x4E06, 2), (0x9FA0, 0x9FA5, 214)]

    def sha(self, path, lines, crlf=False):
        return load_radical_table(write_table(path, lines, crlf)).sha256

    def test_line_ends_comments_and_split_runs_keep_the_hash(self, tmp_path):
        p = tmp_path / "t.tsv"
        base = run_lines(self.RUNS)
        split = run_lines([(0x4E00, 0x4E02, 1), (0x4E03, 0x4E05, 1)] + self.RUNS[1:])
        hashes = {
            self.sha(p, base),
            self.sha(p, base, crlf=True),
            self.sha(p, ["# a table", ""] + base[:1] + ["# more"] + base[1:]),
            self.sha(p, split),
        }
        assert hashes == {pairs_sha256(expand(self.RUNS))}

    def test_one_changed_id_changes_the_hash(self, tmp_path):
        p = tmp_path / "t.tsv"
        changed = [self.RUNS[0], (0x4E06, 0x4E06, 3), self.RUNS[2]]
        assert self.sha(p, run_lines(self.RUNS)) != self.sha(p, run_lines(changed))

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=run_lists(), crlf=st.booleans(), data=st.data())
    def test_any_encoding_of_a_mapping_hashes_its_pairs(self, tmp_path, runs, crlf, data):
        split = []
        for first, last, rid in runs:
            cut = data.draw(st.integers(first, last))
            split += [(first, cut, rid)] + ([(cut + 1, last, rid)] if cut < last else [])
        p = write_table(tmp_path / "t.tsv", interleave(data, run_lines(split)), crlf)
        assert load_radical_table(p).sha256 == pairs_sha256(expand(runs))

    def test_bundled_table_hash(self, table):
        # a change here orphans every checkpoint: bump segmenter.VERSION with it
        assert table.sha256 == BUNDLED_SHA256 == pairs_sha256(table.entries)


@pytest.fixture(scope="module")
def generator():
    """scripts/build_radical_table.py, when this Python's Unicode data is the
    version the bundled file was generated from."""
    header = re.search(r"^# unicodedata version: (\S+)$", TABLE_PATH.read_text("utf-8"), re.M)
    if unicodedata.unidata_version != header.group(1):
        pytest.skip(f"unicodedata {unicodedata.unidata_version}, table from {header.group(1)}")
    spec = importlib.util.spec_from_file_location("build_radical_table", GENERATOR_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBundledFile:
    def test_is_the_generators_output(self, generator):
        assert TABLE_PATH.read_bytes() == generator.table_text().encode("utf-8")

    def test_loads_to_the_generated_mapping(self, generator, table):
        assert table.entries == dict(generator.build_entries())

    def test_holds_803_runs(self, table):
        lines = TABLE_PATH.read_text("utf-8").splitlines()
        assert len([line for line in lines if not line.startswith("#")]) == 803
        assert len(table) == 21566


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
