"""Source hygiene checks that need no installed linter."""

import ast
import importlib
from collections import Counter
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


USERS = sorted(
    [*(ROOT / "src" / "arithcx").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
)


def defined_functions(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(class or None, name) for each module-level function and each
    method defined directly in a module-level class, public or private;
    dunder methods aside, which Python calls by itself."""
    out: list[tuple[str | None, str]] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((None, node.name))
        elif isinstance(node, ast.ClassDef):
            out += [
                (node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef)
            ]
    return [
        (cls, name) for cls, name in out
        if not (name.startswith("__") and name.endswith("__"))
    ]


def read_names(trees: list[ast.Module]) -> tuple[set[str], set[str]]:
    """The names read as plain names and the names read as attributes."""
    names: set[str] = set()
    attrs: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
    return names, attrs


def callerless(
    defining: dict[str, ast.Module], users: list[ast.Module], spanned: set[str]
) -> list[str]:
    """"module.[Class.]name" for each function or method that no user
    reads: a function may be read as a name or an attribute, a method
    only as an attribute, and a spanned name counts as read.  A private
    function that only tests read has no caller."""
    names, attrs = read_names(users)
    return sorted(
        ".".join(p for p in (module, cls, name) if p)
        for module, tree in defining.items()
        for cls, name in defined_functions(tree)
        if name not in spanned and name not in attrs and (cls or name not in names)
    )


def spanned_names() -> set[str]:
    """Every function name in perfbench/spans.py's SPANNED, which the
    tracer looks up by name."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            return {f for fs in ast.literal_eval(node.value).values() for f in fs}
    raise AssertionError("perfbench/spans.py defines no SPANNED")


def test_scan_flags_a_callerless_function():
    lib = ast.parse(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def traced(): pass\n"
        "def _private(): pass\n"
        "def _helper(): pass\n"
        "class K:\n"
        "    def __init__(self): pass\n"
        "    def m(self): pass\n"
        "    def _step(self): pass\n"
        "    def dead(self): pass\n"
        "    def _dead(self): _dead()\n"
    )
    # a method read only as a plain name has no caller
    user = ast.parse("used()\nk.m\ndead()\n_helper()\nself._step()\n")
    assert callerless({"lib": lib}, [user], {"traced"}) == [
        "lib.K._dead", "lib.K.dead", "lib._private", "lib.unused",
    ]


def test_no_callerless_functions():
    assert len(USERS) > 10
    spanned = spanned_names()
    assert "main" in spanned
    defining = {
        path.stem: ast.parse(path.read_text(), str(path))
        for path in USERS
        if path.parent.name == "arithcx"
    }
    users = [ast.parse(path.read_text(), str(path)) for path in USERS]
    assert callerless(defining, users, spanned) == []


def test_every_export_resolves_once():
    # a name deleted from a module must not linger in an `__all__`,
    # where it would break `from arithcx import *`
    modules = ["arithcx"] + [
        f"arithcx.{path.stem}"
        for path in SOURCES
        if path.parent.name == "arithcx" and path.stem != "__init__"
    ]
    checked = 0
    for name in modules:
        module = importlib.import_module(name)
        exports = getattr(module, "__all__", None)
        if exports is None:
            continue
        checked += 1
        assert [e for e, n in Counter(exports).items() if n > 1] == [], name
        assert [e for e in exports if not hasattr(module, e)] == [], name
    assert checked >= 7
