"""The package calls no BLAS-backed numpy function, which is why its CLI
entry (__main__.py) can start numpy with one OpenBLAS thread: no `dot`,
`matmul`, `@`, `linalg`, `einsum`, `inner`, `vdot` or `tensordot`,
whether reached as an attribute (np.dot, a.dot, np.linalg) or imported
by name (from numpy import dot).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pareto_kcenter"

BLAS = {"dot", "matmul", "linalg", "einsum", "inner", "vdot", "tensordot"}


def blas_uses(source: str) -> list[str]:
    """"<line>: <what>" for each BLAS-backed call or import in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.alias) and (
                BLAS & set(node.name.split("."))):
            found.append(f"{node.lineno}: import {node.name}")
    return found


def test_the_walk_sees_each_form():
    source = ("import numpy.linalg\nfrom numpy import vdot\n"
              "a @ b\na @= b\nnp.dot(a, b)\na.matmul(b)\nnp.einsum('i', a)\n")
    assert sorted(blas_uses(source)) == [
        "1: import numpy.linalg", "2: import vdot", "3: @", "4: @",
        "5: .dot", "6: .matmul", "7: .einsum"]


def test_the_package_calls_no_blas_function():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if (uses := blas_uses(path.read_text()))}
    assert found == {}
