"""The package ships no code that only the tests use: every public
top-level function and class of src/pareto_kcenter, and every public
method of those classes, is referenced somewhere outside tests/.

A reference is a name, an attribute, an imported name or a string
constant (perfbench/spans.py names its traced functions as strings) in
the package, the demos or a non-test perfbench script.  The definition
itself does not count, and neither do docstrings.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pareto_kcenter"


def definitions():
    """(qualified name, bare name) of every public top-level function and
    class of the package and every public method of those classes."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield (f"{module}.{node.name}.{item.name}",
                               item.name)


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                and node.body):
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def referenced_names() -> set[str]:
    files = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py")
               if not p.name.startswith("test_"))]
    names = set()
    for path in files:
        tree = ast.parse(path.read_text())
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in docs):
                names.add(node.value)
    return names


def test_every_public_definition_has_a_caller_outside_the_tests():
    defs = dict(definitions())
    assert "geom.PointSet.require_nonempty" in defs  # methods are seen
    names = referenced_names()
    unused = sorted(qual for qual, name in defs.items() if name not in names)
    assert unused == [], "only the tests use these; move them to tests/"
