"""Every top-level function and class in src/judou and scripts/ has a caller
outside tests/.

A definition whose name appears nowhere else in the shipped code (the package,
scripts/ and perfbench/) is test-only code and belongs in tests/. Names are
counted as Python NAME tokens, so strings and comments do not count as uses.
"""

import ast
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "judou"
SCRIPTS = ROOT / "scripts"
SHIPPED = [PACKAGE, SCRIPTS, ROOT / "perfbench"]

ALLOWED = {
    # acceptance criterion 1 checks the shipped forward recursion against
    # enumeration; moved to tests/, the gate would check test code instead
    "crf.log_partition",
}


def _name_tokens(path: Path) -> Counter:
    with path.open("rb") as f:
        return Counter(tok.string for tok in tokenize.tokenize(f.readline)
                       if tok.type == tokenize.NAME)


def _is_cli_command(node) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if (isinstance(target, ast.Attribute) and target.attr == "command"
                and isinstance(target.value, ast.Name) and target.value.id == "main"):
            return True
    return False


def _definitions(root=PACKAGE):
    """(module.name, name) of each top-level def and class in root's modules."""
    for path in sorted(root.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name == "main" or _is_cli_command(node):
                continue
            yield f"{path.stem}.{node.name}", node.name


def unused_definitions(root=PACKAGE) -> list:
    uses = Counter()
    for shipped in SHIPPED:
        for path in sorted(shipped.rglob("*.py")):
            uses += _name_tokens(path)
    return [qual for qual, name in _definitions(root) if uses[name] < 2 and qual not in ALLOWED]


def test_every_definition_has_a_shipped_caller():
    unused = unused_definitions()
    assert not unused, f"no caller outside tests/, move them there: {', '.join(unused)}"


def test_every_script_definition_has_a_shipped_caller():
    # the synthetic fixtures live in scripts/, so they must not grow test-only helpers either
    assert "synthetic.run_radical_signal" in {qual for qual, _ in _definitions(SCRIPTS)}
    unused = unused_definitions(SCRIPTS)
    assert not unused, f"no caller outside tests/, move them there: {', '.join(unused)}"


def test_tokens_skip_strings_and_comments(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('def f():\n    return "f"  # f\n', encoding="utf-8")
    assert _name_tokens(src)["f"] == 1


def test_allowlist_names_real_definitions():
    assert ALLOWED <= {qual for qual, _ in _definitions()}
