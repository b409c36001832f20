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
* Every defaulted parameter and every ``**kwargs`` of a public function or
  method of the package is passed by some call in the package, the tests or
  the bench harness: a knob no caller turns is a constant.  ``tol`` is
  exempt, since every predicate shares the ``ToleranceProfile`` convention.
"""

import ast
from pathlib import Path

import pytest

import cstarseq

PACKAGE = Path(cstarseq.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
TEST_FILES = sorted(Path(__file__).parent.glob("*.py"))
BENCH_FILES = sorted((Path(__file__).parent.parent / "bench").glob("*.py"))
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


def _public_functions():
    """(qualified name, def, positional offset) of each public top-level
    function and each public method of a public top-level class; the offset
    skips a method's ``self`` or ``cls``."""
    for path in MODULES:
        for node in _tree(path).body:
            if isinstance(node, ast.FunctionDef) and node.name[0] != "_":
                yield f"{path.stem}.{node.name}", node, 0
            elif isinstance(node, ast.ClassDef) and node.name[0] != "_":
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name[0] != "_":
                        static = any("staticmethod" in _names_in(d)
                                     for d in fn.decorator_list)
                        yield (f"{path.stem}.{node.name}.{fn.name}", fn,
                               0 if static else 1)


def _knobs(fn: ast.FunctionDef, offset: int):
    """(label, passes) for each defaulted parameter and the ``**kwargs`` of
    ``fn``, ``passes(call)`` telling whether a call sets it: by keyword, by
    position, or through ``*``/``**``."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, p in enumerate(positional[first:], first - offset):
        yield p.arg, lambda c, name=p.arg, i=i: (
            i < len(c.args) or any(isinstance(x, ast.Starred) for x in c.args)
            or any(k.arg in (name, None) for k in c.keywords))
    for p, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield p.arg, lambda c, name=p.arg: any(
                k.arg in (name, None) for k in c.keywords)
    if a.kwarg is not None:
        named = {p.arg for p in positional + a.kwonlyargs}
        yield "**" + a.kwarg.arg, lambda c: any(
            k.arg is None or k.arg not in named for k in c.keywords)


def test_every_public_default_and_kwargs_is_passed_by_some_call():
    calls = {}  # callee name (the last dotted part) -> its calls
    for path in MODULES + TEST_FILES + BENCH_FILES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node.func), []).append(node)
    unturned = [
        f"{qualname}({label})"
        for qualname, fn, offset in _public_functions()
        for label, passes in _knobs(fn, offset)
        if label != "tol" and not any(map(passes, calls.get(fn.name, [])))
    ]
    assert unturned == []


def _callee(func: ast.expr):
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None
