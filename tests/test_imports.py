"""Source checks over every ``dpfed`` module.

- Every name a module imports is used in that module. ``__init__.py`` is
  left out of this check: its imports are the package's re-exports.
- No module holds an ``assert`` statement: ``python -O`` strips them, so
  a check the program relies on must raise an error instead.
- Every error class but the base is told apart somewhere: another module
  names it in an ``except`` clause or an ``isinstance`` call. A class no
  code reacts to belongs folded into ``InvalidValue``.
- Every absolute import is of the standard library, ``numpy`` or
  ``scipy.special``. ``import dpfed`` is part of every start-up, and
  ``scipy.special`` is already most of its time; a new heavy import would
  slow every run without any test seeing it.
- Every name in ``dpfed.__all__`` is used besides where it is defined: in
  another part of the library, a demo or the benchmark. Exported API that
  only tests call is code to delete, not to keep.
- The same holds for every public function, class, method and property
  that a module defines. A string constant counts as a use, because the
  benchmark rebinds some of them by name.
"""

import ast
import sys
from pathlib import Path

import pytest

import dpfed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dpfed"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n"
    assert unused_imports(source) == ["line 2: os", "line 4: b"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def asserts(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_checker_flags_an_assert():
    assert asserts("x = 1\nif x:\n    assert x, 'x'\n") == ["line 3"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_has_no_assert(path):
    assert asserts(path.read_text()) == []


def uncaught_errors(errors_source: str, other_sources: list[str]) -> list[str]:
    classes = [node.name for node in ast.parse(errors_source).body if isinstance(node, ast.ClassDef)]
    caught = set()
    for source in other_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = node.type
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                named = node.args[1]
            else:
                continue
            caught.update(n.id for n in ast.walk(named) if isinstance(n, ast.Name))
    return [name for name in classes if name != "DpFedError" and name not in caught]


def test_checker_flags_an_error_class_nothing_tells_apart():
    errors = "class DpFedError(Exception): pass\nclass A(DpFedError): pass\nclass B(DpFedError): pass\nclass C(A): pass\n"
    other = "try:\n    f()\nexcept (A, OSError):\n    raise B('x')\nif isinstance(e, (C, int)):\n    pass\n"
    assert uncaught_errors(errors, [other]) == ["B"]


def test_every_error_class_is_told_apart():
    others = [p.read_text() for p in ALL_MODULES if p.name != "errors.py"]
    assert uncaught_errors((SRC / "errors.py").read_text(), others) == []


def outside_imports(source: str) -> list[str]:
    """Absolute imports of anything but the standard library, numpy and scipy.special."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if not (top in sys.stdlib_module_names or top == "numpy" or (name + ".").startswith("scipy.special.")):
                found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_flags_an_outside_import():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\nfrom numpy.linalg import norm\n"
        "from scipy.special import expit\nimport scipy\nfrom scipy import stats\nfrom . import dpsgd\n"
        "def f():\n    import pandas\n"
    )
    assert outside_imports(source) == ["line 5: scipy", "line 6: scipy", "line 9: pandas"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.name for p in ALL_MODULES])
def test_module_imports_only_stdlib_numpy_and_scipy_special(path):
    assert outside_imports(path.read_text()) == []


def unused_exports(names: list[str], sources: list[str]) -> list[str]:
    """The names no source refers to; a definition is not a reference."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [name for name in names if name not in used]


def test_checker_flags_an_export_nothing_uses():
    sources = ["def f():\n    return g()\n\ndef g():\n    pass\n\nclass C:\n    pass\n", "import m\nfrom m import k\nm.h(1)\n"]
    assert unused_exports(["f", "g", "h", "k", "C"], sources) == ["f", "k", "C"]


USERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def test_every_export_is_used_outside_tests():
    assert unused_exports(dpfed.__all__, [p.read_text() for p in USERS]) == []


def unused_definitions(modules: dict[str, str], sources: list[str]) -> list[str]:
    """Public module-level functions and classes, and public methods and
    properties of those classes, that no source names; a definition is not
    a reference, a string constant equal to the name is."""
    defined = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined.append((f"{module}.{node.name}.{item.name}", item.name))
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [label for label, name in defined if name not in used]


def test_checker_flags_a_definition_nothing_uses():
    module = (
        "def f():\n    return g()\n\ndef g():\n    pass\n\ndef _h():\n    pass\n\n"
        "class C:\n    def __init__(self):\n        self.m()\n\n    def m(self):\n        pass\n\n"
        "    @property\n    def p(self):\n        pass\n\n    def q(self):\n        pass\n\n"
        "class D:\n    def r(self):\n        pass\n"
    )
    user = "x = D()\nrebind(x, 'p')\nprint('the q')\n"
    assert unused_definitions({"mod": module}, [module, user]) == ["mod.f", "mod.C", "mod.C.q", "mod.D.r"]


def test_every_definition_is_used_outside_tests():
    modules = {p.stem: p.read_text() for p in MODULES}
    assert unused_definitions(modules, [p.read_text() for p in USERS]) == []
