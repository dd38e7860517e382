"""Rules the source tree keeps: no floating-point arithmetic in ``src``, and
every cache in ``src`` has an integer bound."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sostransfer"
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


def _rule_violations(rule) -> dict[str, list[str]]:
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {}
    for path in files:
        uses = rule(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    return found


def test_src_has_no_floats():
    assert _rule_violations(_float_uses) == {}


def test_src_caches_are_bounded():
    assert _rule_violations(_unbounded_caches) == {}


def test_the_rule_catches_each_kind():
    code = "import math\nfrom math import sqrt\nx = 0.5\ny = float(2)\nz = math.log(3)\n"
    assert sorted(_float_uses(ast.parse(code))) == [
        "float constant 0.5",
        "float(...)",
        "from math import sqrt",
        "math.log",
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
