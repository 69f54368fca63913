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


def test_only_predictors_touches_the_factor():
    # the Cholesky factor's storage is known in predictors alone: no other
    # module imports scipy or reads a solve's L (uq reads V = L^-1 H through
    # KrigingWeights.whiten)
    touching = set()
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            reads_l = isinstance(node, ast.Attribute) and node.attr == "L" and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "solve"
                or isinstance(node.value, ast.Name) and node.value.id == "solve")
            if reads_l or any(n.partition(".")[0] == "scipy" for n in names):
                touching.add(os.path.basename(path))
    assert touching == {"predictors.py"}
