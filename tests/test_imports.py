"""No module in src/, tests/ or tools/ imports a name it never uses.

A stdlib-ast stand-in for a linter's unused-import rule, and a check that the
package root loads nothing and each submodule imports on its own.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path for folder in ("src", "tests", "tools") for path in (ROOT / folder).rglob("*.py")
)
SUBMODULES = sorted(path.stem for path in (ROOT / "src" / "nfbeam").glob("[!_]*.py"))

# argv: submodule names. Fails if `import nfbeam` loads a submodule, or if a
# submodule fails to import with every other nfbeam.* module unloaded.
_IMPORT_ALONE = """
import importlib, sys
def loaded():
    return sorted(name for name in sys.modules if name.startswith("nfbeam."))
import nfbeam
assert loaded() == [], f"import nfbeam loaded {loaded()}"
for name in sys.argv[1:]:
    for done in loaded():
        del sys.modules[done]
    importlib.import_module("nfbeam." + name)
"""


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


def test_the_root_loads_nothing_and_each_submodule_imports_alone():
    # a fresh process: this one has imported the package already
    env = dict(os.environ)
    path = (str(ROOT / "src"), env.get("PYTHONPATH"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, path))
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALONE, *SUBMODULES],
        env=env, capture_output=True, text=True, check=False,
    )
    assert SUBMODULES
    assert result.returncode == 0, result.stderr
