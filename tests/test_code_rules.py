"""Source-level rules on the library code, checked by parsing it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "calabilab"
BLANKET = {"Exception", "BaseException"}


def _blanket_handlers(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield node.lineno, "bare except"
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for exc in caught:
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name in BLANKET:
                yield node.lineno, f"except {name}"


def test_rule_detects_blanket_handlers():
    code = (
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept builtins.BaseException:\n    pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert [line for line, _ in _blanket_handlers(ast.parse(code))] == [3, 7, 11]


def test_no_blanket_except_in_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in _blanket_handlers(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
