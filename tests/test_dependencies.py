"""The package runs on numpy plus the standard library, nothing else.

Every import statement in src/zerosum/*.py, including those inside
functions, must name a stdlib module, numpy, or zerosum itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zerosum"
ALLOWED = {"numpy", "zerosum"}


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_runtime_imports_are_numpy_or_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = [
        f"{path.name}:{lineno}: {module}"
        for path in files
        for lineno, module in _imported_modules(path)
        if module.split(".")[0] not in sys.stdlib_module_names | ALLOWED
    ]
    assert not foreign, foreign
