"""What every process compiles stays small: a static scan of the imports.

A CLI process compiles each module it imports.  So ``cli.py`` imports at
module level only what parsing needs, ``errors`` and ``rings``.  Each
command family's runner (``cli_witt``, ``cli_delta``, ``cli_lambda``,
``cli_verify``) is imported by ``cli.main`` alone, after parsing, and by no
other module.  ``witt.py`` loads the disk-cache format (``cache``), the
series model (``series``) and the W_2 checks (``delta``) only inside the
functions that run them.  The import contract of ``test_cli.py`` checks
what a listed argv loads; this scan reads every module's source, so an
import that would bring cold code into every process fails here for any
argv.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lambda_forge"
RUNNERS = {"cli_witt", "cli_delta", "cli_lambda", "cli_verify"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _modules(node) -> list:
    """The package modules an import statement names."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("lambda_forge.")]
    if node.level == 0:
        if node.module == "lambda_forge":
            return [a.name for a in node.names]
        return [node.module.split(".")[1]] if node.module.startswith("lambda_forge.") else []
    # the package has no subpackages: ``from .witt import x`` or ``from . import cache``
    return [node.module.split(".")[0]] if node.module else [a.name for a in node.names]


def _imports(node, top: bool = True):
    """(module, line, at module level) of each package import under ``node``;
    one inside a function runs only when the function does, one in a class
    body when the module is imported."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield from ((m, child.lineno, top) for m in _modules(child))
        yield from _imports(child, top and not isinstance(child, FUNCTIONS))


def _scan(name: str) -> list:
    return list(_imports(ast.parse((PACKAGE / f"{name}.py").read_text())))


def test_the_scan_sees_every_kind_of_import():
    source = (
        "from .a import x\nfrom . import b\nimport lambda_forge.c\nfrom lambda_forge import d\nimport json\n"
        "class K:\n    from .e import y\n"
        "def f():\n    from .g import z\n    if z:\n        from . import h\n"
    )
    got = list(_imports(ast.parse(source)))
    assert got == [("a", 1, True), ("b", 2, True), ("c", 3, True), ("d", 4, True), ("e", 7, True),
                   ("g", 9, False), ("h", 11, False)]


def test_only_cli_main_imports_a_runner():
    found = [
        (path.stem, module, line, top)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, line, top in _scan(path.stem)
        if module in RUNNERS
    ]
    assert found and all(stem == "cli" and not top for stem, _, _, top in found), found


def test_cli_imports_at_module_level_only_what_parsing_needs():
    assert {m for m, _, top in _scan("cli") if top} == {"errors", "rings"}


def test_witt_leaves_the_cache_format_series_model_and_w2_checks_to_the_calls_that_run_them():
    assert [(m, line) for m, line, top in _scan("witt") if top and m in {"cache", "series", "delta"}] == []
