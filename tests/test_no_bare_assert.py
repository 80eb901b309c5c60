import ast
from pathlib import Path

import cayleyball

PACKAGE = Path(cayleyball.__file__).parent


def test_library_has_no_bare_assert():
    # `python -O` strips assert statements, so internal checks raise
    # InternalCheckError instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert sorted(PACKAGE.glob("*.py")) and not found


def test_exports_resolve_and_are_sorted():
    names = cayleyball.__all__
    assert [name for name in names if not hasattr(cayleyball, name)] == []
    assert names == sorted(set(names))
