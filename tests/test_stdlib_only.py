"""The package imports nothing outside the standard library and itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kzresidue"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_module_imports_only_stdlib_and_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    allowed = set(sys.stdlib_module_names) | {"kzresidue"}
    foreign = [
        f"{path.name}:{line}: {root}"
        for path in modules
        for line, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert not foreign, foreign
