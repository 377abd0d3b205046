"""Checks on the library source itself."""

import ast
import importlib
import re
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


# The modules whose public names make up the library's surface; cli, errors
# and __init__ are not in it
SURFACE = ("forms", "compose", "lattice", "cube", "seifert")


def readme_rows():
    """The backticked names in each module's row of the README module table."""
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        m = re.match(r"\| `qforms\.(\w+)` +\|(.*)\|$", line)
        if m and m.group(1) in SURFACE:
            rows[m.group(1)] = set(re.findall(r"`([\w.]+)`", m.group(2)))
    return rows


def public_surface(module):
    """The public module-level functions and classes of a module, and the
    public methods of those classes as Class.method."""
    path = Path(qforms.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    names, methods = [], []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names.append(node.name)
            if isinstance(node, ast.ClassDef):
                methods += [f"{node.name}.{f.name}" for f in node.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return names, methods


def test_readme_lists_every_public_name():
    rows = readme_rows()
    assert set(rows) == set(SURFACE)
    missing = [f"{m}.{name}" for m in SURFACE for name in public_surface(m)[0] if name not in rows[m]]
    assert not missing, f"public names the README module table does not list: {missing}"


def test_readme_names_resolve():
    # a name removed from the library cannot stay listed
    unknown = []
    for m, names in readme_rows().items():
        module = importlib.import_module(f"qforms.{m}")
        for name in sorted(names):
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if obj is None:
                unknown.append(f"{m}: {name}")
    assert not unknown, f"README module table names that do not resolve: {unknown}"


def test_readme_lists_methods_the_library_does_not_read():
    # a public method that no library module reads as an attribute is API
    # for users only, so the table names it as Class.method
    read = set()
    for path in Path(qforms.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    rows = readme_rows()
    missing = [f"{m}: {method}" for m in SURFACE for method in public_surface(m)[1]
               if method.split(".")[1] not in read and method not in rows[m]]
    assert not missing, f"unread public methods the README module table does not list: {missing}"
