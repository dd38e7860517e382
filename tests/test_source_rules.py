"""Rules the source tree keeps: no floating-point arithmetic in ``src``."""

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


def test_src_has_no_floats():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {}
    for path in files:
        uses = _float_uses(ast.parse(path.read_text(), filename=str(path)))
        if uses:
            found[path.name] = uses
    assert found == {}


def test_the_rule_catches_each_kind():
    code = "import math\nfrom math import sqrt\nx = 0.5\ny = float(2)\nz = math.log(3)\n"
    assert sorted(_float_uses(ast.parse(code))) == [
        "float constant 0.5",
        "float(...)",
        "from math import sqrt",
        "math.log",
    ]
