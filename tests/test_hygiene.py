"""Source hygiene: no module imports a name it never uses, the package's
``__all__`` is exactly what ``__init__`` imports, and every code reference in
a comment or docstring names something that exists."""

import ast
import builtins
import functools
import importlib
import re
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


# A double-backticked name, bare or dotted, as comments and docstrings cite
# code: ``perms.avoids_pair``, ``_ends_at``, ``lowest``.
CODE_REFERENCE = re.compile(r"``([A-Za-z_]\w*(?:\.\w+)*)``")
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _definitions(tree):
    """Every name a def, class, assignment, argument or import binds,
    anywhere in the module."""
    names = _imported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
    return names


def _code_references(path):
    return [
        (lineno, ref)
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for ref in CODE_REFERENCE.findall(line)
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_code_references_in_comments_resolve(path):
    # A bare name must be bound somewhere in the package, or be a module or
    # a builtin; so must a dotted private one, and a dotted one headed by a
    # module must resolve as an attribute path.
    defined = set().union(*(_definitions(_parse(p)) for p in SRC.glob("*.py")))
    defined |= {p.stem for p in SRC.glob("*.py")} | set(dir(builtins))
    stale = []
    for lineno, ref in _code_references(path):
        head, _, attrs = ref.partition(".")
        if head in MODULES and attrs:
            module = importlib.import_module(f"avoiders.{head}")
            try:
                functools.reduce(getattr, attrs.split("."), module)
            except AttributeError:
                stale.append((lineno, ref))
        elif (not attrs or ref.startswith("_")) and ref not in defined:
            stale.append((lineno, ref))
    assert not stale, f"{path.name} cites code that does not exist: {stale}"


def test_code_reference_scan_sees_both_kinds():
    # The scan must keep finding the references it guards, or the check
    # above would pass on nothing.
    refs = {ref for path in SRC.glob("*.py") for _, ref in _code_references(path)}
    assert {"perms.avoids_pair", "_ends_at", "lowest"} <= refs
