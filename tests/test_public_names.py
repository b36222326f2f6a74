"""Every public module-level function and class of the package is used.

A name counts as used when code in src/qlll, demos/ or perfbench/ refers to
it outside its own definition (a name, an attribute, an import, or a string
that a getattr-style lookup reads), or when qlll/__init__.py exports it.
Tests do not count: a function that only its tests call is dead code.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlll"


def names_in(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def test_every_public_definition_is_referenced():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    exported = {alias.asname or alias.name for node in ast.walk(trees[PACKAGE / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in exported:
                continue
            # every top-level statement of every source but the definition itself
            used = any(node.name in names_in(stmt) for tree in trees.values()
                       for stmt in tree.body if stmt is not node)
            if not used:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "public definitions that nothing uses: " + ", ".join(unused)
