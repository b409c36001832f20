"""Source hygiene of the package and its tests, checked on syntax trees.

* Every name a module or test file imports at top level is used in it; the
  package ``__init__`` re-exports and ``from __future__`` imports are
  exempt.
* Only ``sequences`` asks which tail model a scenario carries: outside it,
  no ``isinstance`` check names a tail-model class.  The engines go through
  the tail-model protocol instead.
* Every private top-level function or class of the package is used
  somewhere in the package outside its own body: tests alone do not keep a
  helper alive.
"""

import ast
from pathlib import Path

import pytest

import cstarseq

PACKAGE = Path(cstarseq.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
TAIL_MODELS = {"ConvergentTail", "BlockTail"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict:
    """Top-level imported name -> line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted)
                        if isinstance(n, ast.Name))
    return used


def _names_in(node: ast.AST) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"] + TEST_FILES,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_top_level_imports(path):
    tree = _tree(path)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in _used_names(tree)}
    assert unused == {}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "sequences.py"],
                         ids=lambda p: p.name)
def test_no_tail_model_isinstance_outside_sequences(path):
    offending = [
        node.lineno for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and _names_in(node.args[1]) & TAIL_MODELS
    ]
    assert offending == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_private_top_level_definitions_have_callers_in_the_package(path):
    elsewhere = set().union(*(_names_in(_tree(p)) for p in MODULES
                              if p != path))
    body = _tree(path).body
    uncalled = []
    for node in body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")):
            used = elsewhere.union(*(_names_in(other) for other in body
                                     if other is not node))
            if node.name not in used:
                uncalled.append(node.name)
    assert uncalled == []
