"""Static scans of every module under src/faultlab and scripts/.

Each module uses each name it imports; names listed in its `__all__` count as
used (re-exports). Each module-level `_private` function, class or constant is
used by some other statement of its own module. Each public one of src/faultlab
is used outside the tests, save those in an allow-list, which is empty: test
tools live in tests/oracles.py. Names inside string annotations count as used.
So is each public method of a src/faultlab class, and each optional parameter
of a src/faultlab function or method is passed by some call outside the tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "faultlab").rglob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])
# code outside the package that calls it; perfbench's own tests do not count
CONSUMERS = [*(ROOT / "scripts").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]

# Public names of src/faultlab that only tests call, each kept on purpose.
TEST_ONLY_ALLOWED: dict[str, str] = {}


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


def _defined_names(stmt: ast.stmt) -> list[str]:
    """The function, class or constant names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def dead_helpers(source: str) -> list[str]:
    """Module-level `_private` defs and constants that no other top-level statement uses."""
    tree = ast.parse(source)
    dead = []
    for stmt in tree.body:
        private = [n for n in _defined_names(stmt) if n.startswith("_") and not n.startswith("__")]
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


def _referenced_names(node: ast.AST) -> set[str]:
    """`_used_names` plus attribute names, so `module.name` counts as a use."""
    return _used_names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def public_names_only_tests_use(package: dict[str, str], consumers: list[str]) -> list[str]:
    """Public module-level defs and constants of `package` (path -> source) that
    nothing outside the tests uses: no other statement of their module, no other
    package module, no `consumers` source. An import or an `__all__` entry is no
    use, so an `__init__.py` re-export does not count."""
    trees = {path: ast.parse(src) for path, src in package.items()}
    refs = {path: _referenced_names(tree) for path, tree in trees.items()}
    outside = set().union(*(_referenced_names(ast.parse(src)) for src in consumers))
    found = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(r for p, r in refs.items() if p != path))
        for stmt in tree.body:
            public = [n for n in _defined_names(stmt) if not n.startswith("_")]
            if public:
                used = elsewhere.union(*(_referenced_names(other)
                                         for other in tree.body if other is not stmt))
                found += [f"{path} line {stmt.lineno}: {n}" for n in public if n not in used]
    return found


def test_scanner_finds_test_only_names():
    package = {
        "pkg/__init__.py": 'from .a import orphan\n__all__ = ["orphan"]\n__version__ = "1"\n',
        "pkg/a.py": ('LIMIT = 3\ndef helper(): return LIMIT\n'
                     'def orphan(): return orphan()\nclass Ghost:\n    link: "Ghost"\n'
                     'def api() -> "Hint": return helper()\nHint = int\nUNUSED: int = 4\n'),
        "pkg/b.py": 'from . import a\ndef run(): return a.api()\n',
    }
    consumers = ['from pkg.b import run\nrun()\n']
    assert public_names_only_tests_use(package, consumers) == [
        "pkg/a.py line 3: orphan", "pkg/a.py line 4: Ghost", "pkg/a.py line 8: UNUSED"]


def test_public_names_have_callers_outside_tests():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    found = public_names_only_tests_use(package, [p.read_text() for p in CONSUMERS])
    assert sorted(f.rsplit(": ", 1)[1] for f in found) == sorted(TEST_ONLY_ALLOWED), found


def _member_refs(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names a method could be reached by in `node`, outside `skip`: attribute
    names not rooted at numpy, keyword argument names and string constants."""
    refs: set[str] = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Attribute):
            root = n.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in ("np", "numpy")):
                refs.add(n.attr)
        elif isinstance(n, ast.keyword) and n.arg:
            refs.add(n.arg)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            refs.add(n.value)
        stack.extend(ast.iter_child_nodes(n))
    return refs


def public_methods_only_tests_use(package: dict[str, str], consumers: list[str]) -> list[str]:
    """Public methods of `package`'s classes (path -> source) whose name no code
    outside the tests and outside the method itself reaches (see `_member_refs`)."""
    trees = {path: ast.parse(src) for path, src in package.items()}
    outside = set().union(*(_member_refs(ast.parse(src)) for src in consumers))
    found = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(_member_refs(t) for p, t in trees.items() if p != path))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for fn in cls.body:
                if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not fn.name.startswith("_")
                        and fn.name not in elsewhere | _member_refs(tree, skip=fn)):
                    found.append(f"{path} line {fn.lineno}: {cls.name}.{fn.name}")
    return found


def test_scanner_finds_test_only_methods():
    package = {
        "pkg/a.py": ('import numpy as np\n'
                     'class Cell:\n'
                     '    def zeros(self): return np.zeros(3)\n'
                     '    def loop(self): return self.loop()\n'
                     '    def run(self): return self.by_name\n'
                     '    def by_name(self): pass\n'
                     '    def by_kw(self): pass\n'
                     '    def by_str(self): pass\n'
                     '    def _private(self): pass\n'
                     '    def __len__(self): return 0\n'),
        "pkg/b.py": ('from .a import Cell\n'
                     'def go(c: Cell): return c.run(), dict(by_kw=1), getattr(c, "by_str")\n'),
    }
    assert public_methods_only_tests_use(package, []) == [
        "pkg/a.py line 3: Cell.zeros", "pkg/a.py line 4: Cell.loop"]


def test_public_methods_have_callers_outside_tests():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert public_methods_only_tests_use(package, [p.read_text() for p in CONSUMERS]) == []


def _calls_by_name(tree: ast.AST) -> dict[str, list[ast.Call]]:
    """The calls in `tree`, by the name they call: `f(...)` and `x.f(...)` call f."""
    calls: dict[str, list[ast.Call]] = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            calls.setdefault(name, []).append(n)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` passes `param`, by keyword, by `position` or through * or **."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return position is not None and (position < len(call.args) or starred)


def optional_params_only_tests_pass(package: dict[str, str], consumers: list[str]) -> list[str]:
    """Optional parameters (with a default, or keyword-only) of the functions and
    methods of `package` (path -> source) that no call outside the tests and
    outside the function itself passes. Calls are matched by the called name;
    a method's positions as called skip `self` or `cls`."""
    trees = {path: ast.parse(src) for path, src in package.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *(ast.parse(src) for src in consumers)]:
        for name, found in _calls_by_name(tree).items():
            calls.setdefault(name, []).extend(found)
    found = []
    for path, tree in trees.items():
        owner = {id(fn): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body}
        for fn in (n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef,
                                                                ast.AsyncFunctionDef))):
            inside = {id(n) for n in ast.walk(fn)}
            outside = [c for c in calls.get(fn.name, []) if id(c) not in inside]
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            offset = 1 if id(fn) in owner and not static else 0
            positional = fn.args.posonlyargs + fn.args.args
            optional = [(a.arg, i - offset) for i, a in enumerate(positional)
                        if i >= len(positional) - len(fn.args.defaults)]
            optional += [(a.arg, None) for a in fn.args.kwonlyargs]
            qualname = f"{owner[id(fn)]}.{fn.name}" if id(fn) in owner else fn.name
            found += [f"{path} line {fn.lineno}: {qualname}({param})"
                      for param, position in optional
                      if not any(_passes(c, param, position) for c in outside)]
    return found


def test_scanner_finds_test_only_params():
    package = {
        "pkg/a.py": ('def f(x, y=1, z=2, *, k=None, w=3): return f(x, w=w)\n'
                     'class C:\n'
                     '    def m(self, a, b=1, c=2): pass\n'
                     '    @staticmethod\n'
                     '    def s(a=1, b=2): pass\n'
                     'def g(*args, p=0, **kw): pass\n'
                     'def h(a=1, b=2): pass\n'),
        "pkg/b.py": ('from .a import C, f, g\n'
                     'def go(c: C, kw):\n'
                     '    f(1, 2, k=3)\n'
                     '    c.m(1, 2)\n'
                     '    C.s(1)\n'
                     '    g(**kw)\n'),
    }
    consumers = ['from pkg.a import h\nh(*[1, 2])\n']
    assert optional_params_only_tests_pass(package, consumers) == [
        "pkg/a.py line 1: f(z)", "pkg/a.py line 1: f(w)",
        "pkg/a.py line 3: C.m(c)", "pkg/a.py line 5: C.s(b)"]


def test_optional_params_have_callers_outside_tests():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}
    assert optional_params_only_tests_pass(package, [p.read_text() for p in CONSUMERS]) == []
