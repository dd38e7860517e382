"""Rules the source tree keeps: no floating-point arithmetic in ``src``, no
``fractions`` import and no ``Fraction`` name in ``src``, every cache in
``src`` has an integer bound, and every module-level name in ``src`` is read
somewhere in ``src``.  The package's import list in ``__init__.py`` is the API
declaration: a public name it imports counts as read.  Every name a test module
imports is read in that module."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sostransfer"
FLOAT_MATH = {"sqrt", "exp", "log", "pow"}


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"float constant {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append("float(...)")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append(f"math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"from math import {a.name}" for a in node.names if a.name in FLOAT_MATH]
    return found


def _fraction_uses(tree: ast.AST) -> list[str]:
    """Imports of ``fractions`` and names of ``Fraction``, bare or as
    ``fractions.Fraction``, annotations included."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            found.append(f"Fraction at line {node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append(f"{ast.unparse(node)} at line {node.lineno}")
        elif isinstance(node, ast.Import):
            found += [f"import {a.name}" for a in node.names if a.name == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append("from fractions import")
    return found


def _unbounded_caches(tree: ast.AST) -> list[str]:
    """``functools.cache`` uses, and ``lru_cache`` uses whose ``maxsize`` is
    not an integer literal or a module-level name bound to one."""
    int_names = {
        target.id
        for node in getattr(tree, "body", ())
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and type(node.value.value) is int
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def cache_name(node: ast.AST) -> str:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            return node.attr
        return ""

    def integer(node) -> bool:
        if isinstance(node, ast.Constant):
            return type(node.value) is int
        return isinstance(node, ast.Name) and node.id in int_names

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"from functools import {a.name}" for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and cache_name(node) == "cache":
            found.append("functools.cache")
        elif isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache":
            maxsize = next((k.value for k in node.keywords if k.arg == "maxsize"), node.args[0] if node.args else None)
            if not integer(maxsize):
                found.append(f"lru_cache(maxsize={ast.unparse(maxsize) if maxsize else ''})")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += ["bare @lru_cache" for dec in node.decorator_list if cache_name(dec) == "lru_cache"]
    return found


def _orphaned_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level functions, classes and constants, private or public but
    not dunder, that no code in trees reads, as "module:name".  A read is a
    loaded name or an attribute outside the name's own top-level statement
    (so a helper that only calls itself counts as orphaned), or an import in
    ``__init__.py``, which exports the name."""
    defined = []
    reads: set[str] = set()
    for module, tree in trees.items():
        for node in tree.body:
            if module == "__init__.py" and isinstance(node, ast.ImportFrom):
                reads.update(alias.name for alias in node.names)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, ast.Assign):
                own = {t.id for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                own = {node.target.id}
            else:
                own = set()
            defined += [(module, name) for name in own if not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in own:
                    reads.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr not in own:
                    reads.add(sub.attr)
    return sorted(f"{module}:{name}" for module, name in defined if name not in reads)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports, ``from __future__`` aside, that it never
    loads; ``import a.b`` binds and is read through ``a``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.partition(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} at line {line}" for name, line in imported.items() if name not in loaded)


def _src_trees() -> dict[str, ast.Module]:
    files = sorted(SRC.glob("*.py"))
    assert files
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in files}


def _rule_violations(rule) -> dict[str, list[str]]:
    found = {}
    for name, tree in _src_trees().items():
        uses = rule(tree)
        if uses:
            found[name] = uses
    return found


def test_src_has_no_floats():
    assert _rule_violations(_float_uses) == {}


def test_src_has_no_fractions():
    assert _rule_violations(_fraction_uses) == {}


def test_src_caches_are_bounded():
    assert _rule_violations(_unbounded_caches) == {}


def test_src_private_names_are_read():
    """Private and public names alike: the rule reads both."""
    assert _orphaned_names(_src_trees()) == []


def test_test_imports_are_read():
    found = {}
    for path in sorted(TESTS.glob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[path.name] = unused
    assert found == {}


def test_the_import_rule_catches_an_unused_import():
    code = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from math import gcd, isqrt\n"
        "def f(): return os.path.join(js.dumps(gcd(4, 6)))\n"
    )
    assert _unused_imports(ast.parse(code)) == ["isqrt at line 4"]


def test_the_orphan_rule_catches_unused_helpers():
    helpers = ast.parse(
        "_LIMIT = 3\n"
        "_USED: int = 4\n"
        "__all__ = ['public']\n"
        "class _Gone: pass\n"
        "def _orphan(): return _USED\n"
        "def _self(n): return _self(n - 1)\n"
        "def _called(): pass\n"
        "def _by_attribute(): pass\n"
        "def public(): return _called()\n"
    )
    caller = ast.parse("import helpers\nhelpers._by_attribute()\nhelpers.public()\n")
    assert _orphaned_names({"helpers.py": helpers, "caller.py": caller}) == [
        "helpers.py:_Gone",
        "helpers.py:_LIMIT",
        "helpers.py:_orphan",
        "helpers.py:_self",
    ]


def test_the_orphan_rule_reads_the_package_exports():
    helpers = ast.parse(
        "LIMIT = 3\n"
        "def orphan(): return LIMIT\n"
        "def exported(): pass\n"
        "class Used: pass\n"
        "def caller(): return Used()\n"
    )
    package = ast.parse("from .helpers import caller, exported\n__version__ = '1'\n")
    assert _orphaned_names({"helpers.py": helpers, "__init__.py": package}) == ["helpers.py:orphan"]


def test_the_rule_catches_each_kind():
    code = "import math\nfrom math import sqrt\nx = 0.5\ny = float(2)\nz = math.log(3)\n"
    assert sorted(_float_uses(ast.parse(code))) == [
        "float constant 0.5",
        "float(...)",
        "from math import sqrt",
        "math.log",
    ]


def test_the_fraction_rule_catches_each_kind():
    code = (
        "import fractions\n"
        "from fractions import Fraction\n"
        "HALF = Fraction(1, 2)\n"
        "def annotated(x: Fraction) -> int: return 0\n"
        "def qualified(): return fractions.Fraction(3)\n"
        "class Holder:\n"
        "    def method(self): return Fraction(4)\n"
    )
    assert _fraction_uses(ast.parse(code)) == [
        "import fractions",
        "from fractions import",
        "Fraction at line 3",
        "Fraction at line 4",
        "fractions.Fraction at line 5",
        "Fraction at line 7",
    ]


def test_the_cache_rule_catches_each_kind():
    code = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "SIZE = 8\n"
        "@lru_cache\ndef a(): pass\n"
        "@lru_cache(maxsize=None)\ndef b(): pass\n"
        "@functools.lru_cache(None)\ndef c(): pass\n"
        "@functools.cache\ndef d(): pass\n"
        "@lru_cache()\ndef e(): pass\n"
        "@lru_cache(maxsize=SIZE)\ndef ok1(): pass\n"
        "@functools.lru_cache(maxsize=64)\ndef ok2(): pass\n"
    )
    assert sorted(_unbounded_caches(ast.parse(code))) == [
        "bare @lru_cache",
        "from functools import cache",
        "functools.cache",
        "lru_cache(maxsize=)",
        "lru_cache(maxsize=None)",
        "lru_cache(maxsize=None)",
    ]
