"""Checks on the library source itself."""

import ast
import sys
from pathlib import Path

import qforms


def test_no_assert_statements_in_library():
    # invariants must survive python -O, which strips assert statements
    found = []
    for path in sorted(Path(qforms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_no_unused_imports_in_library():
    # every name a module imports is read somewhere in it; __init__.py
    # imports only to re-export
    found = []
    for path in sorted(Path(qforms.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports in the library: {found}"


def test_no_unused_private_names_in_library():
    # a private module-level name is read somewhere in the library: a name
    # read in its own module, an attribute or an imported name in another
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(qforms.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{name}:{node.lineno} {d}" for d in defined
                      if d.startswith("_") and not d.startswith("__") and d not in used]
    assert not found, f"unused private names in the library: {found}"


def test_no_private_dataclass_fields_in_library():
    # a result type carries no hidden state: a field named _x would still
    # take part in __eq__, and the benchmark's output digests leave it out
    found = []
    for path in sorted(Path(qforms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if "dataclass" not in [getattr(d, "attr", getattr(d, "id", None)) for d in decorators]:
                continue
            fields = [f.target.id for f in node.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
            found += [f"{path.name} {node.name}.{name}" for name in fields if name.startswith("_")]
    assert not found, f"private dataclass fields in the library: {found}"


def test_library_imports_only_the_standard_library():
    # no runtime dependencies: every import is relative, from __future__,
    # or of a module of the standard library
    found = []
    for path in sorted(Path(qforms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names]
    assert not found, f"imports outside the standard library: {found}"
