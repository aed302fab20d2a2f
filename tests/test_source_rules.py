"""Rules on the package source itself."""

import ast
import importlib
import inspect
import re
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



def is_private(dotted):
    """Whether some part of a dotted name has a leading underscore, dunders
    aside."""
    return any(p.startswith("_") and not p.startswith("__") for p in dotted.split("."))


def private_numpy_uses(tree):
    """(line, name) for each import of a private numpy module or name, and
    each private attribute read through a name numpy is imported as."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    aliases.add(alias.asname or "numpy")
                    if is_private(alias.name):
                        yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                if is_private(f"{node.module}.{alias.name}"):
                    yield node.lineno, f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                yield node.lineno, ast.unparse(node)


def test_no_private_numpy_api():
    """No module reaches into numpy's private modules or names: calling a
    private LAPACK wrapper such as `numpy.linalg._umath_linalg.solve`
    directly skips the error handling that turns a singular Gram matrix into
    LinAlgError, which the pseudoinverse fallback of the hinge search needs."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}:{name}" for line, name in private_numpy_uses(tree)]
    assert found == []
    bad = ast.parse(
        "import numpy as np\nimport numpy.linalg._umath_linalg\n"
        "from numpy.linalg import _umath_linalg\nnp.linalg._umath_linalg.solve(a, b)\n"
        "np.linalg.solve(a, b)\nnp.__version__\n"
    )
    assert sorted(private_numpy_uses(bad)) == [
        (2, "numpy.linalg._umath_linalg"),
        (3, "numpy.linalg._umath_linalg"),
        (4, "np.linalg._umath_linalg"),
    ]


def test_only_matrix_calls_numpy_unique():
    """Row identity has one implementation, `matrix.distinct_rows`, which
    keeps its answer on the matrix: no other module calls `np.unique` (or
    one of its `unique_*` variants) or imports it from numpy."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "matrix.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.startswith("unique")]
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


def parameters(node):
    """Names of every parameter of a function definition."""
    a = node.args
    found = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
    found += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
    return found


def test_parameters_are_read():
    """Every parameter of every function (other than self and cls) is read
    in its body, so knobs that change nothing do not linger."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for statement in body
                for n in ast.walk(statement)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{path.name}:{getattr(node, 'name', 'lambda')} {name}"
                for name in parameters(node)
                if name not in read and name not in ("self", "cls")
            ]
    assert unread == []


def test_public_names_are_used():
    """Every public top-level function or class of a module is re-exported
    by `__init__.py`, read elsewhere in the package, or used by a test, so
    dead public helpers do not linger."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    users = list(trees.values()) + [
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(__file__).parent.glob("*.py"))
    ]
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if not any(node.name in referenced_names(t, node) for t in users):
                unused.append(f"{module}:{node.name}")
    assert unused == []


# The package modules each module imports through `from .x import` (or
# `from . import x`): the layering of the package.
LAYERS = {
    "__init__.py": {"census", "embed", "errors", "generators", "matrix", "spectral", "stabbing", "vc"},
    "__main__.py": {"cli"},
    "census.py": {"errors", "vc"},
    "cli.py": {"census", "embed", "errors", "generators", "matrix", "spectral", "stabbing", "vc"},
    "embed.py": {"errors", "matrix", "spectral", "stabbing", "vc"},
    "errors.py": set(),
    "generators.py": {"errors", "matrix", "vc"},
    "matrix.py": {"errors"},
    "spectral.py": {"errors", "matrix"},
    "stabbing.py": {"errors", "matrix"},
    "vc.py": {"errors", "matrix"},
}


def package_imports(tree):
    """Package modules a module imports by relative imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_module_layering():
    """Each module imports exactly the package modules pinned in LAYERS, so
    a new dependency between layers is a deliberate change. The row-order
    layer (`stabbing`) needs no VC search."""
    found = {
        path.name: package_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert found == LAYERS


def public_callables(name):
    """The public functions and classes called name in `signrank` or one of
    its modules."""
    modules = [signrank, *(importlib.import_module(f"signrank.{p.stem}") for p in PACKAGE.glob("[!_]*.py"))]
    found = {getattr(module, name, None) for module in modules}
    return [obj for obj in found if inspect.isfunction(obj) or inspect.isclass(obj)]


def test_readme_signatures_match_the_code():
    """Each backticked `name(a, b=...)` in README.md whose arguments are all
    identifiers lists, in order, the leading parameters of the public
    function or class it names. Literal calls such as `hamming_ball(8, 2)`
    are examples, not signatures, and are not checked."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    checked, wrong = 0, []
    for name, args in re.findall(r"`(\w+)\(([^`()]*)\)`", readme):
        names = [a.split("=")[0].strip() for a in args.split(",")]
        if not all(n.isidentifier() for n in names):
            continue
        for obj in public_callables(name):
            checked += 1
            params = list(inspect.signature(obj).parameters)
            if params[: len(names)] != names:
                wrong.append(f"{name}({args}) against {name}({', '.join(params)})")
    assert checked >= 12  # the README tour names 12, so the pattern cannot go stale
    assert wrong == []
