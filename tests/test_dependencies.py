"""The package runs on numpy plus the standard library, nothing else, and
imports nothing it does not use.

Every import statement in src/zerosum/*.py, including those inside
functions, must name a stdlib module, numpy, or zerosum itself, and every
name it binds must be read somewhere in its module (or listed in the
module's ``__all__``). An import line marked ``# noqa: F401`` is kept on
purpose and exempt. Importing the CLI loads no module that only a remote
agent or a random draw needs, so every start stays cheap."""

import ast
import os
import subprocess
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


def _unused_imports(path):
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # "import a.b" binds a
            bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [(lineno, name) for lineno, name in bound if name not in read]


def test_every_imported_name_is_used():
    files = sorted(SRC.glob("*.py"))
    assert files
    unused = [f"{path.name}:{lineno}: {name}"
              for path in files for lineno, name in _unused_imports(path)]
    assert not unused, unused


# deferred on purpose: RemoteModelAgent._request imports urllib (which loads
# ssl and http.client), rng._philox_key numpy.random and harness._propose
# concurrent.futures (only for jobs > 1), on first use
DEFERRED = ("ssl", "urllib.request", "http.client", "numpy.random", "concurrent.futures")


def test_importing_the_cli_defers_what_only_some_runs_need():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))}
    code = f"import sys, zerosum.cli; print([m for m in {DEFERRED!r} if m in sys.modules])"
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
