"""A prime parameter is decided in one place, ``rings._prime``.

``_is_prime`` is named only in ``rings.py`` and at the two sites that
compute with primality rather than check a parameter: the factor loop of
``TruncationSet.__init__`` and the witness-prime search of
``fracture_check``.  A hand-written "call ``_is_prime``, then raise"
anywhere else fails here.  The integer rule, ``rings._as_int``, is guarded
by behaviour instead (``test_junk_parameters.py``), since ``isinstance(x,
int)`` also serves plain type dispatch.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambda_forge"
COMPUTING_SITES = {("truncation.py", "TruncationSet.__init__"), ("abelian.py", "fracture_check")}


def _uses(tree: ast.Module, name: str):
    """(qualified name of the enclosing definition, line) of each load of ``name``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Name) and child.id == name or isinstance(child, ast.Attribute) and child.attr == name:
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_is_prime_is_called_only_by_the_prime_rule_and_two_computing_sites():
    sites = set()
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rings.py":
            continue
        for scope, line in _uses(ast.parse(path.read_text()), "_is_prime"):
            sites.add((path.name, scope))
            if (path.name, scope) not in COMPUTING_SITES:
                stray.append(f"{path.name}:{line} in {scope or 'module'}")
    assert stray == []
    assert sites == COMPUTING_SITES


def test_a_hand_written_prime_check_is_found():
    source = "def f(p):\n    if not _is_prime(p):\n        raise ValueError(p)\n"
    assert _uses(ast.parse(source), "_is_prime") == [("f", 2)]
