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
