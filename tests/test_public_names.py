"""Every public definition of the package is used, and every optional
parameter of a public function is passed.

The definitions checked are the module-level functions and classes, and the
methods and properties of the public classes.  A name counts as used when
code in src/qlll, demos/ or perfbench/ refers to it outside its own
definition (a name, an attribute, an import, or a string that a
getattr-style lookup reads), or when qlll/__init__.py exports a module-level
name.  A method is reached only as an attribute, so only attributes and
strings count for it: a local variable of the same name does not.  A
method that overrides one of a base class counts as used, since
the base class's callers reach it.  Tests do not count: a function that
only its tests call is dead code.

An optional parameter that no call passes is a knob nothing turns.  A call
passes a parameter by its keyword, by reaching its position, or through
*args or **kwargs; calls are matched by the function's name, and here the
tests count, since a test may turn a knob its callers leave alone.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlll"


def names_of(node, attributes_only=False):
    """The names one node refers to, not those of its children."""
    if isinstance(node, ast.Name) and not attributes_only:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias) and not attributes_only:
        yield node.asname or node.name.rsplit(".", 1)[-1]
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        yield node.value


def references(node, attributes_only=False) -> Counter:
    return Counter(name for sub in ast.walk(node) for name in names_of(sub, attributes_only))


def is_public_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def overrides(module, cls_name: str, name: str) -> bool:
    cls = getattr(importlib.import_module(f"qlll.{module}"), cls_name)
    return any(hasattr(base, name) for base in cls.__mro__[1:])


def test_every_public_definition_is_referenced():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in sources}
    exported = {alias.asname or alias.name for node in ast.walk(trees[PACKAGE / "__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    everywhere = {
        kind: sum((references(tree, kind) for tree in trees.values()), Counter())
        for kind in (False, True)
    }

    def used(node, attributes_only=False) -> bool:
        # every reference in every source but those inside the definition itself
        inside = references(node, attributes_only)
        return everywhere[attributes_only][node.name] > inside[node.name]

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in filter(is_public_def, trees[path].body):
            if node.name not in exported and not used(node):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in filter(is_public_def, node.body):
                if not used(method, True) and not overrides(path.stem, node.name, method.name):
                    unused.append(f"{path.name}:{method.lineno} {node.name}.{method.name}")
    assert not unused, "public definitions that nothing uses: " + ", ".join(unused)


def passes(call: ast.Call, name: str, position) -> bool:
    """Does this call pass the parameter, at its position when it has one?"""
    if any(kw.arg in (None, name) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_optional_parameter_is_passed():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
    calls = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                for name in names_of(node.func):
                    calls.setdefault(name, []).append(node)
    unpassed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in filter(is_public_def, ast.parse(path.read_text()).body):
            if isinstance(node, ast.ClassDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            optional = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
            optional += [(a.arg, None) for a, default in zip(args.kwonlyargs, args.kw_defaults)
                         if default is not None]
            for name, position in optional:
                if not any(passes(call, name, position) for call in calls.get(node.name, ())):
                    unpassed.append(f"{path.name}:{node.lineno} {node.name}({name})")
    assert not unpassed, "optional parameters that no call passes: " + ", ".join(unpassed)


def test_no_module_calls_pinv():
    """Every pseudo-inverse in the package is a conjugate-gradient solve or a
    cut eigendecomposition; the dense pinv references live in tests/."""
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if "pinv" in names_of(node)]
    assert not calls, "pinv in the package: " + ", ".join(calls)
