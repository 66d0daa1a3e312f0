"""The package's public names: ``scalebo.__all__`` lists only names that
exist, and every module reads each name it imports."""

import ast
from pathlib import Path

import pytest

import scalebo


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scalebo import *", namespace)
    for name in scalebo.__all__:
        assert namespace[name] is getattr(scalebo, name)


SRC = Path(scalebo.__file__).resolve().parent


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(path):
    # No linter runs on the package, so a deleted use must not leave its
    # import behind.  __init__.py imports only to re-export.
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported <= read, f"{path} imports {sorted(imported - read)} and never reads them"
