"""No module in src/, tests/ or tools/ imports a name it never uses.

A stdlib-ast stand-in for a linter's unused-import rule. Package __init__.py
files are exempt: their imports are the package's re-exports.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for folder in ("src", "tests", "tools")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads.

    A name counts as read where it appears as a name expression (the root
    of an attribute chain is one) or inside a string annotation.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_checker_flags_an_unused_import():
    source = "import math\nimport os.path\nfrom json import dumps, loads\nos.path.join(loads(''))\n"
    assert unused_imports(source) == [(1, "math"), (3, "dumps")]
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from typing import List\nx: 'List[int]' = []\n") == []
    assert unused_imports("import numpy as np\ndef f() -> 'np.ndarray': pass\n") == []
    assert unused_imports("import numpy as np\ny = 'np'\n") == [(1, "np")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
