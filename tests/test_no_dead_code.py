"""Every function and method in the package is used somewhere.

A name defined in ``src/lambda_forge`` must appear as a word somewhere
other than its own ``def`` line: in the package, the tests, the benchmark
or the README.  A definition nothing mentions is dead code.  A private
one (a name starting with ``_``) must be mentioned in the package itself:
a helper only the tests call belongs in the tests.  Likewise an
exception class in ``errors.py`` that no other class there derives from
must be raised somewhere in the package: one only the tests raise is no
part of the program.  And every ``__slots__`` name of a package class must
be read as an attribute somewhere: a field nothing reads is dead state.
A public top-level function must be called in the package or exported by
``lambda_forge.__all__``, unless ``NOT_YET_WIRED`` gives the reason it stays.
The oracles the differential tests compare against import nothing from
``lambda_forge``, so that none can share a bug with the kernel it checks.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import lambda_forge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lambda_forge"
WORD = re.compile(r"\w+")


def _definitions():
    """(name, file, line) of each top-level function and non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and not (fn.name.startswith("__") and fn.name.endswith("__")):
                    yield fn.name, path, fn.lineno


def _files():
    files = sorted(ROOT.glob("src/**/*.py")) + sorted(ROOT.glob("tests/*.py"))
    return files + sorted(ROOT.glob("bench/*.py")) + [ROOT / "README.md"]


def _unmentioned(files, definitions):
    """Each of ``definitions`` whose name ``files`` mention only on its own ``def`` line."""
    words = Counter()
    lines = {}
    for path in files:
        lines[path] = path.read_text().splitlines()
        for line in lines[path]:
            words.update(WORD.findall(line))
    return [
        f"{path.name}:{lineno} {name}"
        for name, path, lineno in definitions
        if words[name] == WORD.findall(lines[path][lineno - 1]).count(name)
    ]


def test_every_function_is_referenced():
    assert _unmentioned(_files(), _definitions()) == []


def test_every_private_function_serves_the_package():
    private = [d for d in _definitions() if d[0].startswith("_")]
    assert _unmentioned(sorted(PACKAGE.glob("*.py")), private) == []


def test_every_exception_is_raised_by_the_package():
    classes = [node for node in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert [node.name for node in classes if node.name not in bases | raised] == []


def test_every_slot_is_read():
    slots = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    names = ast.literal_eval(stmt.value)
                    slots += [(path.name, node.name, name) for name in ((names,) if isinstance(names, str) else names)]
    read = set()
    for path in (p for p in _files() if p.suffix == ".py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert slots
    assert [f"{f}: {cls}.{name}" for f, cls, name in slots if name not in read] == []


# public top-level functions that neither the package calls nor
# ``lambda_forge.__all__`` exports, each with the reason it stays
NOT_YET_WIRED = {
    "integrality_report": "the integrality check of the free lambda-ring; no verify suite runs it yet",
    "plocal_basis_check": "the p-local description of the free lambda-ring; no verify suite runs it yet",
    "frobenius_poly_map": "memoized Frobenius polynomials (README, Caching); no witt structure op serves them yet",
    "comult_poly_map": "memoized comultiplication polynomials (README, Caching); no witt structure op serves them yet",
    "clear_memo": "empties the memo of universal polynomials; the bench and the tests time generation after it",
}


def test_every_public_function_serves_the_package():
    """A public top-level function is called in the package or exported by
    ``__all__``: a helper only the tests call belongs in the tests."""
    public = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if node.name not in lambda_forge.__all__:
                    public.append((node.name, path, node.lineno))
    unused = {d.split()[-1]: d for d in _unmentioned(sorted(PACKAGE.glob("*.py")), public)}
    assert [d for name, d in unused.items() if name not in NOT_YET_WIRED] == []
    # an allowlisted name that gains a caller, an export or a removal leaves the list
    assert sorted(unused) == sorted(NOT_YET_WIRED)


# the oracles of the differential tests, each checked for independence
ORACLES = [ROOT / "tests" / "reference.py", ROOT / "bench" / "oracles.py"]


@pytest.mark.parametrize("path", ORACLES, ids=lambda path: path.name)
def test_oracles_import_nothing_from_the_package(path):
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported and [name for name in imported if name.split(".")[0] == "lambda_forge"] == []
