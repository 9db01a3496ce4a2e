"""Static scans of every module under src/faultlab and scripts/.

Each module uses each name it imports; names listed in its `__all__` count as
used (re-exports). Each module-level `_private` function, class or constant is
used by some other statement of its own module. Names inside string
annotations count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "faultlab").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _used_names(node: ast.AST) -> set[str]:
    """Names in `node`, including those inside string annotations."""
    used = _names(node)
    for n in ast.walk(node):
        ann = None
        if isinstance(n, (ast.arg, ast.AnnAssign)):
            ann = n.annotation
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = n.returns
        if ann is None:
            continue
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _names(ast.parse(c.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def dead_helpers(source: str) -> list[str]:
    """Module-level `_private` defs and constants that no other top-level statement uses."""
    tree = ast.parse(source)
    dead = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defined = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
        if private:
            used = set().union(*(_used_names(other) for other in tree.body if other is not stmt))
            dead += [f"line {stmt.lineno}: {n}" for n in private if n not in used]
    return dead


def test_scanner_finds_unused_names():
    src = ('from __future__ import annotations\n'
           'import os.path\nimport numpy as np\nfrom a import b, c, d, e\n'
           '__all__ = ["d"]\n'
           'def f(x: "e | None") -> np.ndarray:\n    return c(x)\n')
    assert unused_imports(src) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_finds_dead_helpers():
    src = ('def _used(): pass\n'
           'def _dead(): return _dead()\n'
           'class _Ghost:\n    link: "_Ghost"\n'
           '_LIMIT = 3\n_UNUSED = 4\n__version__ = "1"\n'
           'def public(a: "_Hint") -> int:\n    return _used() + _LIMIT\n'
           '_Hint = int\n')
    assert dead_helpers(src) == ["line 2: _dead", "line 3: _Ghost", "line 6: _UNUSED"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_helpers(path):
    assert dead_helpers(path.read_text()) == []
