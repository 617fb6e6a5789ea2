"""Rules about where the library may decompose a matrix, read from its source.

Every eigendecomposition goes through ``kernels._eigh``, which a SymMatrix
keeps, and the only spectrum computed apart from it is ``kernels._condition``'s
test of the conditioning block; a new call elsewhere would decompose again a
matrix that already carries its spectrum.
"""

import ast
from pathlib import Path

import dppci

SRC = Path(dppci.__file__).resolve().parent

# Each eigen-routine of numpy.linalg, and the one function allowed to call it.
ALLOWED = {
    "eigh": ("kernels", "_eigh"),
    "eigvalsh": ("kernels", "_condition"),
    "eig": None,
    "eigvals": None,
}


def _eigen_calls(tree):
    """(routine, enclosing function) for every use of an eigen-routine by name."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        if name in ALLOWED:
            found.append((name, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_eigen_routines_only_in_their_one_home():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.stem == "kernels" for p in modules)
    seen = set()
    for path in modules:
        for name, func in _eigen_calls(ast.parse(path.read_text(), str(path))):
            where = (path.stem, func)
            assert where == ALLOWED[name], f"numpy.linalg.{name} used in {path.name}:{func}"
            seen.add(name)
    assert seen == {"eigh", "eigvalsh"}


def test_rule_sees_every_form_of_call():
    src = (
        "import numpy as np\n"
        "from numpy.linalg import eigvals\n"
        "def f(m):\n"
        "    return np.linalg.eigh(m), linalg.eig(m)\n"
    )
    assert sorted(_eigen_calls(ast.parse(src))) == [
        ("eig", "f"), ("eigh", "f"), ("eigvals", None),
    ]
