"""Rules on the package source itself."""

import ast
from pathlib import Path

import signrank

PACKAGE = Path(signrank.__file__).parent


def test_no_assert_statements():
    """Checks are explicit exceptions: `python -O` strips assert statements."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(PACKAGE.glob("*.py"))
    assert found == []


def private_definitions(tree):
    """(name, statement) for each private top-level function, class or
    assignment target of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def referenced_names(tree, skip):
    """Names read, attributes taken and names imported in the top-level
    statements of `tree` other than `skip`."""
    found = set()
    for statement in tree.body:
        if statement is skip:
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def test_private_names_are_used():
    """Every private top-level name is read somewhere in the package outside
    its own definition, so dead helpers do not linger."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    unused = []
    for module, tree in trees.items():
        for name, node in private_definitions(tree):
            if not any(name in referenced_names(t, node) for t in trees.values()):
                unused.append(f"{module}:{name}")
    assert unused == []


def imported_names(tree):
    """(name, line) for each name bound by an import in the module, other
    than `from __future__` features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_imports_are_used():
    """Every name a module imports is read in that module, so stale imports
    do not linger. `__init__.py` is exempt: its imports are the re-exports."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}:{name}" for name, line in imported_names(tree) if name not in read]
    assert unused == []
