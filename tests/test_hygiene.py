"""Source hygiene checks that need no installed linter."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "arithcx").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name bound by an import that the module
    never reads and does not list in its `__all__`."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nimport re as regex\nfrom a import b, c\nc()\n")
    assert unused_imports(tree) == [(1, "os"), (2, "regex"), (3, "b")]
    exported = ast.parse("from a import b\n__all__ = ['b']\n")
    assert unused_imports(exported) == []


def test_no_unused_imports():
    assert len(SOURCES) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
