"""Regenerate the bundled Kangxi radical table (src/judou/data/kangxi_radicals.tsv).

The table maps Han codepoints to the 214 Kangxi radical numbers. It is derived
from Unicode structure alone, so it can be rebuilt offline:

  * The Kangxi Radicals block (U+2F00..U+2FD5) holds the 214 radicals in
    canonical order; NFKC-normalizing each one yields the unified ideograph
    that heads the corresponding radical section.
  * The original CJK Unified Ideographs block (U+4E00..U+9FA5) is laid out in
    radical-then-residual-stroke order, so every codepoint belongs to the
    section of the greatest head codepoint not exceeding it.
  * A CJK Compatibility Ideograph (U+F900..U+FAFF) whose NFKC form is one
    character of that block takes that character's radical.

The file stores the mapping as runs of consecutive codepoints that share one
radical, one "FIRST<TAB>LAST<TAB>id" line each; the radical sections make the
URO block 214 runs. The script asserts the 214 section heads are strictly
increasing before emitting anything; a wrong head would corrupt every
assignment after it.
"""

import bisect
import sys
import unicodedata
from pathlib import Path

URO_FIRST = 0x4E00
URO_LAST = 0x9FA5  # original block; later extensions are not radical-ordered
KANGXI_BLOCK_FIRST = 0x2F00
COMPAT_FIRST, COMPAT_LAST = 0xF900, 0xFAFF

OUT_PATH = Path(__file__).resolve().parent.parent / "src" / "judou" / "data" / "kangxi_radicals.tsv"


def section_heads() -> list[int]:
    heads = []
    for i in range(214):
        unified = unicodedata.normalize("NFKC", chr(KANGXI_BLOCK_FIRST + i))
        assert len(unified) == 1, f"radical {i + 1} did not normalize to one character"
        heads.append(ord(unified))
    assert all(a < b for a, b in zip(heads, heads[1:])), "section heads must be strictly increasing"
    assert heads[0] == URO_FIRST
    return heads


def build_entries() -> list[tuple[int, int]]:
    heads = section_heads()
    entries = []
    for i in range(214):
        entries.append((KANGXI_BLOCK_FIRST + i, i + 1))
    for cp in range(URO_FIRST, URO_LAST + 1):
        entries.append((cp, bisect.bisect_right(heads, cp)))
    for cp in range(COMPAT_FIRST, COMPAT_LAST + 1):
        unified = unicodedata.normalize("NFKC", chr(cp))
        if len(unified) == 1 and URO_FIRST <= ord(unified) <= URO_LAST:
            entries.append((cp, bisect.bisect_right(heads, ord(unified))))
    return entries


def build_runs() -> list[tuple[int, int, int]]:
    """build_entries() merged into (first, last, id) runs of consecutive
    codepoints with one id."""
    runs = []
    for cp, rid in build_entries():
        if runs and runs[-1][1] == cp - 1 and runs[-1][2] == rid:
            runs[-1] = (runs[-1][0], cp, rid)
        else:
            runs.append((cp, cp, rid))
    return runs


def table_text() -> str:
    """The table file's contents for this Python's Unicode data."""
    lines = [
        "# Kangxi radical numbers (1..214) for Han codepoints.",
        "# Derived from the Unicode Kangxi Radicals block and the radical-section",
        "# layout of the original CJK Unified Ideographs block (U+4E00..U+9FA5);",
        "# CJK Compatibility Ideographs take the radical of their NFKC form there.",
        "# Regenerate with: python scripts/build_radical_table.py",
        f"# unicodedata version: {unicodedata.unidata_version}",
    ]
    lines.extend(f"{first:04X}\t{last:04X}\t{rid}" for first, last, rid in build_runs())
    return "\n".join(lines) + "\n"


def main() -> None:
    text = table_text()
    OUT_PATH.parent.mkdir(parents=True, exist_ok=True)
    OUT_PATH.write_bytes(text.encode("utf-8"))
    n_runs = sum(not line.startswith("#") for line in text.splitlines())
    print(f"wrote {n_runs} runs to {OUT_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
