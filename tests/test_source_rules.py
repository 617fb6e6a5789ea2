"""Rules about the library's design, read from its source.

Every eigendecomposition goes through ``kernels._eigh``, which a SymMatrix
keeps, and the only spectrum computed apart from it is ``kernels._condition``'s
test of the conditioning block; a new call elsewhere would decompose again a
matrix that already carries its spectrum. Every Cholesky factorization is
``kernels._cholesky_accepts``, the validation of a matrix that carries none,
so no other path can accept a matrix by a factorization with its own margin.

Each question has one public entry point: a public function that only
re-packs its arguments into a call to another is allowed only for the four
shortcuts the benchmark in perfbench/ imports.

The public surface is what a caller needs: every public function or constant
is named by the CLI, imported by the benchmark or used in the README's code,
and every public method or property of a public class is read as an
attribute by the library, the benchmark or the README's code.

A tolerance is a parameter only where a caller sets it: every parameter
named sym_tol, eps_spec, zero_tol or tol of a public function, or of the
constructor or a public method of a public class, is passed by some call in
the library, the benchmark or the README's code.

A CLI flag exists only where a caller sets it: every option of every
subcommand appears in the benchmark, in the CI workflow or in a README block.

A checked set is its bitmask: outside ``kernels``, which validates sets and
forms their masks, no library module reads an attribute named ``members`` or
``mask``. Iterating a set, as the CLI does to print one, is not such a read.

Each input check has one home in ``kernels``: no other library module names
``_as_index_set``, the coercion of a raw set, which ``kernels._checked_sets``
orders with the range and overlap checks; and one function raises
SpectrumOutOfRangeError, the range test of a kernel's spectrum.
"""

import argparse
import ast
import re
from pathlib import Path

import dppci
from dppci.cli import build_parser

SRC = Path(dppci.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

# Each decomposition routine of numpy.linalg, and the one function allowed to call it.
ALLOWED = {
    "eigh": ("kernels", "_eigh"),
    "eigvalsh": ("kernels", "_condition"),
    "cholesky": ("kernels", "_cholesky_accepts"),
    "eig": None,
    "eigvals": None,
}


def _eigen_calls(tree):
    """(routine, enclosing function) for every use of a decomposition routine by name."""
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
    assert seen == {"eigh", "eigvalsh", "cholesky"}


def test_rule_sees_every_form_of_call():
    src = (
        "import numpy as np\n"
        "from numpy.linalg import eigvals, cholesky\n"
        "def f(m):\n"
        "    return np.linalg.eigh(m), linalg.eig(m), cholesky(m)\n"
        "def g(m):\n"
        "    return np.linalg.cholesky(m - np.eye(len(m)))\n"
    )
    assert sorted(_eigen_calls(ast.parse(src)), key=str) == [
        ("cholesky", "f"), ("cholesky", "g"), ("cholesky", None),
        ("eig", "f"), ("eigh", "f"), ("eigvals", None),
    ]


# Public functions that are one call to another public function, kept only
# because perfbench imports them.
HELD_SHORTCUTS = {
    "check_marginal_independence",
    "check_ci_given_inclusion",
    "graph_certified_ci",
    "process_independence",
}


def _wrappers(tree, public):
    """Names of the top-level functions in public whose body, after its
    docstring, is one return of a call (or of a subscripted call) to another
    function in public."""
    found = set()
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name not in public:
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if isinstance(value, ast.Subscript):
            value = value.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in public
            and value.func.id != node.name
        ):
            found.add(node.name)
    return found


def test_no_public_function_only_re_packs_another():
    public = set(dppci.__all__)
    wrappers = set()
    for path in sorted(SRC.glob("*.py")):
        wrappers |= _wrappers(ast.parse(path.read_text(), str(path)), public)
    extra = sorted(wrappers - HELD_SHORTCUTS)
    assert not extra, f"public functions that only call another public function: {extra}"
    assert wrappers == HELD_SHORTCUTS  # the rule still sees the ones it holds


def test_wrapper_rule_sees_every_form():
    src = (
        "def general(x, y=0):\n"
        "    return x\n"
        "def plain(x):\n"
        "    return general(x, 1)\n"
        "def documented(x):\n"
        "    \"\"\"Doc.\"\"\"\n"
        "    return general(x)[0]\n"
        "def works(x):\n"
        "    y = x + 1\n"
        "    return general(y)\n"
        "def private_call(x):\n"
        "    return _helper(x)\n"
    )
    public = {"general", "plain", "documented", "works", "private_call"}
    assert _wrappers(ast.parse(src), public) == {"plain", "documented"}


def _names(tree):
    """Every name a module reads, imports, or reads as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def _imported_from_dppci(tree):
    """The names a module imports with ``from dppci import ...``."""
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dppci"
        for alias in node.names
    }


def _uncalled(public, cli, benchmark, readme):
    """The names in public (name -> object), classes apart, that the CLI's
    module does not name, no benchmark module imports from dppci and no README
    block names."""
    named = _names(cli) | _names(readme)
    for tree in benchmark:
        named |= _imported_from_dppci(tree)
    return {name for name, obj in public.items() if not isinstance(obj, type) and name not in named}


def _callers():
    """The CLI module, the benchmark's modules (its tests apart) and the
    README's Python blocks, parsed."""
    cli = ast.parse((SRC / "cli.py").read_text())
    benchmark = [
        ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return cli, benchmark, ast.parse("\n".join(blocks))


def test_every_public_function_has_a_caller():
    public = {name: getattr(dppci, name) for name in dppci.__all__}
    unused = sorted(_uncalled(public, *_callers()))
    assert not unused, f"public names no caller outside the tests uses: {unused}"


def test_caller_rule_sees_every_form():
    def block(m, a, b):
        return m

    public = {
        "block": block, "induced_graph": block, "separates": block,
        "build_table": block, "DEFAULT_ZERO_TOL": 1e-9, "IndexSet": dppci.IndexSet,
    }
    cli = ast.parse(
        "from .graphs import induced_graph\n"
        "def f(args):\n"
        "    return induced_graph(args.m, args.tol or kernels.DEFAULT_ZERO_TOL)\n"
    )
    benchmark = [
        ast.parse("from dppci import build_table\n"),
        ast.parse("import dppci\nfrom dppci.graphs import block\ndppci.block\n"),
    ]
    readme = ast.parse("from dppci import separates\n")
    assert _uncalled(public, cli, benchmark, readme) == {"block"}
    readme = ast.parse("separates(g, [1], [2], [])\nblock(m, [1], [2])\n")
    assert _uncalled(public, cli, benchmark, readme) == set()
    # A re-added block is flagged against the real callers.
    public = {name: getattr(dppci, name) for name in dppci.__all__}
    assert _uncalled({**public, "block": block}, *_callers()) == {"block"}


def _library():
    """The library's modules, parsed."""
    return [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]


def _public_members(trees, classes):
    """"Class.member" -> member for each method or property whose name does not
    start with "_", defined in the body of a class named in classes."""
    return {
        f"{node.name}.{item.name}": item.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in classes
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    }


def _unread(members, readers):
    """The members ("Class.member" -> member) no reader reads as an attribute.
    The match is by name, whatever object the attribute is read from."""
    read = {
        node.attr for tree in readers for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    return {qualified for qualified, name in members.items() if name not in read}


def _public_classes():
    return {name for name in dppci.__all__ if isinstance(getattr(dppci, name), type)}


def test_every_public_member_has_a_caller():
    """Reads inside the library count: a member is reached only through an
    object the library hands out, and the library reads it there."""
    library = _library()
    _, benchmark, readme = _callers()
    members = _public_members(library, _public_classes())
    assert "InducedGraph.edges" in members and "DppModel.from_marginal" in members
    unread = sorted(_unread(members, library + benchmark + [readme]))
    assert not unread, f"public members no caller outside the tests reads: {unread}"


def test_member_rule_sees_every_form():
    tree = ast.parse(
        "class Graph:\n"
        "    n: int\n"
        "    def _flood(self):\n"
        "        return self.n\n"
        "    @property\n"
        "    def edges(self):\n"
        "        return ()\n"
        "    @classmethod\n"
        "    def build(cls):\n"
        "        return cls()\n"
        "    def neighbors(self, i):\n"
        "        return i\n"
        "class Private:\n"
        "    def unread(self):\n"
        "        return 0\n"
    )
    members = _public_members([tree], {"Graph"})
    assert members == {
        "Graph.edges": "edges", "Graph.build": "build", "Graph.neighbors": "neighbors",
    }
    readers = [ast.parse("g = Graph.build()\nprint(g.edges)\nneighbors(g, 1)\n")]
    assert _unread(members, readers) == {"Graph.neighbors"}  # a bare name is no attribute read
    readers.append(ast.parse("pairs = [(v, g.neighbors(v)) for v in range(g.n)]\n"))
    assert _unread(members, readers) == set()
    # A re-added InducedGraph.neighbors is flagged against the real callers.
    library = _library()
    graph = next(
        node for tree in library for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "InducedGraph"
    )
    graph.body.append(ast.parse("def neighbors(self, i):\n    return i\n").body[0])
    _, benchmark, readme = _callers()
    members = _public_members(library, _public_classes())
    assert _unread(members, library + benchmark + [readme]) == {"InducedGraph.neighbors"}


# The names a tolerance parameter goes by.
TOLERANCES = {"sym_tol", "eps_spec", "zero_tol", "tol"}


def _tolerance_parameters(trees, public):
    """"callee.parameter" -> (name, parameter, position) for each tolerance
    parameter of a function named in public, or of the constructor or a public
    method of a class named in public. name is what a call calls: the class
    for its constructor. position counts the positional arguments a call
    gives (self or cls apart); it is None for a keyword-only parameter."""
    found = {}

    def add(qualified, name, func, bound):
        positional = (func.args.posonlyargs + func.args.args)[bound:]
        for position, arg in [*enumerate(positional), *((None, a) for a in func.args.kwonlyargs)]:
            if arg.arg in TOLERANCES:
                found[f"{qualified}.{arg.arg}"] = (name, arg.arg, position)

    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in public:
                add(node.name, node.name, node, 0)
            elif isinstance(node, ast.ClassDef) and node.name in public:
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    decorators = {getattr(d, "id", None) for d in item.decorator_list}
                    if item.name == "__init__":
                        add(node.name, node.name, item, 1)
                    elif not item.name.startswith("_"):
                        bound = 0 if "staticmethod" in decorators else 1
                        add(f"{node.name}.{item.name}", item.name, item, bound)
    return found


def _passes(call, name, parameter, position):
    """Whether call calls name (a bare name or an attribute of anything) and
    gives parameter, by keyword or with more positional arguments than its
    position."""
    func = call.func
    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return called == name and (
        any(keyword.arg == parameter for keyword in call.keywords)
        or (position is not None and len(call.args) > position)
    )


def _unpassed(parameters, callers):
    """The tolerance parameters (as from _tolerance_parameters) that no call
    in callers passes."""
    calls = [node for tree in callers for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {
        key
        for key, where in parameters.items()
        if not any(_passes(call, *where) for call in calls)
    }


def test_every_tolerance_parameter_has_a_caller():
    """Calls inside the library count, the CLI's among them: it passes --tol
    to both zero_tol parameters. The spectral margin and the symmetry
    tolerance are constants, not parameters."""
    library = _library()
    _, benchmark, readme = _callers()
    parameters = _tolerance_parameters(library, set(dppci.__all__))
    assert set(parameters) == {"check_conditional_independence.zero_tol", "induced_graph.zero_tol"}
    unpassed = sorted(_unpassed(parameters, library + benchmark + [readme]))
    assert not unpassed, f"tolerance parameters no call outside the tests passes: {unpassed}"


def test_tolerance_rule_sees_every_form():
    tree = ast.parse(
        "def check(m, zero_tol=1e-9, *, tol=1e-9):\n"
        "    return m\n"
        "def private(m, eps_spec=1e-10):\n"
        "    return m\n"
        "class Matrix:\n"
        "    def __init__(self, values, sym_tol=1e-12):\n"
        "        self.values = values\n"
        "    @classmethod\n"
        "    def build(cls, m, eps_spec=1e-10):\n"
        "        return cls(m)\n"
        "    @staticmethod\n"
        "    def scale(m, zero_tol=1e-9):\n"
        "        return m\n"
        "    def _flood(self, tol=0.0):\n"
        "        return tol\n"
    )
    parameters = _tolerance_parameters([tree], {"check", "Matrix"})
    assert parameters == {
        "check.zero_tol": ("check", "zero_tol", 1),
        "check.tol": ("check", "tol", None),
        "Matrix.sym_tol": ("Matrix", "sym_tol", 1),
        "Matrix.build.eps_spec": ("build", "eps_spec", 1),
        "Matrix.scale.zero_tol": ("scale", "zero_tol", 1),
    }
    callers = [ast.parse(
        "check(m, tol=0.1)\n"  # keyword
        "Matrix(m, 1e-9)\n"  # positional, one past the parameter's position
        "dppci.Matrix.build(m)\n"  # attribute, but too few positional arguments
        "scale(m, tol=0.0)\n"  # another parameter's keyword
    )]
    assert _unpassed(parameters, callers) == {
        "check.zero_tol", "Matrix.build.eps_spec", "Matrix.scale.zero_tol",
    }
    callers.append(ast.parse("check(m, 1e-3)\nm.build(a, eps_spec=0.0)\nMatrix.scale(m, 0.0)\n"))
    assert _unpassed(parameters, callers) == set()
    # A re-added zero_tol on graph_certified_multiway_ci is flagged against the real callers.
    library = _library()
    certify = next(
        node for tree in library for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "graph_certified_multiway_ci"
    )
    certify.args.args.append(ast.arg("zero_tol"))
    certify.args.defaults.append(ast.Constant(1e-9))
    _, benchmark, readme = _callers()
    parameters = _tolerance_parameters(library, set(dppci.__all__))
    assert _unpassed(parameters, library + benchmark + [readme]) == {
        "graph_certified_multiway_ci.zero_tol"
    }


def _options(parser):
    """Every option string of every subcommand of parser, -h and --help apart."""
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option
        for command in subcommands.choices.values()
        for action in command._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }


def _unset(options, texts):
    """The options that appear in no text as a whole word: --tol is not in --tolerance."""
    return {
        option
        for option in options
        if not any(re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text) for text in texts)
    }


def _flag_callers():
    """The benchmark's modules (its tests apart), the CI workflow and every
    fenced block of the README, as text."""
    texts = [
        path.read_text()
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    texts.append((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    return texts + re.findall(r"```[^\n]*\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


def test_every_cli_flag_has_a_caller():
    options = _options(build_parser())
    assert {"--matrix", "--tol", "--separates", "--json"} <= options
    unset = sorted(_unset(options, _flag_callers()))
    assert not unset, f"CLI flags no benchmark module, CI step or README block sets: {unset}"


def test_flag_rule_sees_every_form():
    texts = ["run(['dppci', 'ci', '--tol', '0.3'])", "dppci graph --dot=out.dot --json"]
    options = {"--tol", "--dot", "--json", "--tolerance", "--to"}
    assert _unset(options, texts) == {"--tolerance", "--to"}
    # A re-added --eps-spec is flagged against the real callers.
    parser = build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subcommands.choices["validate"].add_argument("--eps-spec", type=float)
    assert _unset(_options(parser), _flag_callers()) == {"--eps-spec"}


# The attributes of a set that only kernels, which checks sets, may read.
SET_INTERNALS = {"members", "mask"}


def _set_internal_reads(tree):
    """(attribute, line) for every read of a set's members or mask as an attribute."""
    return sorted(
        (node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in SET_INTERNALS
    )


def test_only_kernels_reads_a_sets_internals():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.stem == "oracle" for p in modules)
    found = {
        path.name: reads
        for path in modules
        if path.stem != "kernels"
        for reads in [_set_internal_reads(ast.parse(path.read_text(), str(path)))]
        if reads
    }
    assert not found, f"set members or masks read outside kernels: {found}"


def test_set_rule_sees_every_form():
    tree = ast.parse(
        "def f(event, s, masks):\n"
        "    for i in event.include.members:\n"
        "        pass\n"
        "    return s.mask, masks, IndexSet._of_mask(0), members\n"
    )
    assert _set_internal_reads(tree) == [("mask", 4), ("members", 2)]


def _uses(tree, name):
    """The lines on which tree names name: as a bare name, as an attribute, or
    in an import, under any alias."""
    return sorted({
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names)
    })


def test_only_kernels_coerces_a_raw_set():
    modules = sorted(SRC.glob("*.py"))
    kernels = next(p for p in modules if p.stem == "kernels")
    assert _uses(ast.parse(kernels.read_text()), "_as_index_set")  # the rule sees its home
    found = {
        path.name: uses
        for path in modules
        if path.stem != "kernels"
        for uses in [_uses(ast.parse(path.read_text(), str(path)), "_as_index_set")]
        if uses
    }
    assert not found, f"_as_index_set named outside kernels: {found}"


def test_coercion_rule_sees_every_form():
    tree = ast.parse(
        "from .kernels import IndexSet, _as_index_set as coerce\n"
        "def f(a, b):\n"
        "    return coerce(a), kernels._as_index_set(b)\n"
        "def g(c):\n"
        "    return [_as_index_set(s) for s in c], as_index_set(c), '_as_index_set'\n"
    )
    assert _uses(tree, "_as_index_set") == [1, 3, 5]


def _constructions(tree, name):
    """The enclosing function (None at module level) of each call of name and
    of each raise of it by name, in the order found. Catching it is neither."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        target = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
        if isinstance(node, (ast.Call, ast.Raise)) and name in (
            getattr(target, "id", None), getattr(target, "attr", None)
        ):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_spectrum_error_raised_in_one_function():
    raisers = {
        (path.stem, func)
        for path in sorted(SRC.glob("*.py"))
        for func in _constructions(ast.parse(path.read_text(), str(path)), "SpectrumOutOfRangeError")
    }
    assert raisers == {("kernels", "_check_spectrum")}, f"raised in {sorted(raisers, key=str)}"


def test_raise_rule_sees_every_form():
    tree = ast.parse(
        "def low(w):\n"
        "    raise SpectrumOutOfRangeError('low', eigenvalue=w)\n"
        "def high(w):\n"
        "    err = errors.SpectrumOutOfRangeError('high')\n"
        "    raise err\n"
        "def bare():\n"
        "    raise SpectrumOutOfRangeError\n"
        "def caught(f):\n"
        "    try:\n"
        "        f()\n"
        "    except SpectrumOutOfRangeError as exc:\n"
        "        raise KernelValidationError(str(exc)) from exc\n"
        "raise SpectrumOutOfRangeError('module level')\n"
    )
    assert _constructions(tree, "SpectrumOutOfRangeError") == ["low", "high", "bare", None]
