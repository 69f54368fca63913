"""The package's source files themselves."""

import ast
import glob
import os

import pytest

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), os.pardir,
                                        "src", "pikrig", "*.py")))


def unused_imports(source):
    """Names a module imports and never reads; a name in ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finder_sees_what_a_removal_leaves_behind():
    source = "import os\nfrom dataclasses import dataclass, replace\n" \
             "__all__ = ['dataclass']\nos.getcwd()\n"
    assert unused_imports(source) == [(2, "replace")]


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
