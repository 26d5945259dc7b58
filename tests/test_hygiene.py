"""Source hygiene, read with ``ast`` alone: no module imports a name it never
uses, and the package's ``__all__`` is exactly what ``__init__`` imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "avoiders"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree):
    """Every name an import statement binds, anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _dunder_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _parse(path)
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    used.update(_dunder_all(tree))
    unused = sorted(_imported_names(tree) - used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_all_is_exactly_what_init_imports():
    tree = _parse(SRC / "__init__.py")
    exported = _dunder_all(tree)
    assert len(exported) == len(set(exported)), "__all__ lists a name twice"
    assert set(exported) == _imported_names(tree)
