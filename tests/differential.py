"""A seeded differential of every public call that takes an index set or a
kernel matrix.

From a checkout, print the lines at two commits and compare them:

    PYTHONPATH=src python tests/differential.py --seed 1 > answers.txt

For each model drawn from the seed, a dense K and a sparse L at each
n = 3..8, it calls every public function that takes an index set, an Event
or a CiQuery: on the 14 raw inputs of the set-routing tests (every form a
set may take, and each error), and on valid random sets. It builds an
Event and a CiQuery from each raw input, and runs ``dppci ci``, ``prob``
and ``graph`` through ``cli.main`` on the model's kernel written to a
file, after ``dppci validate`` and ``graph`` on a few fixed matrices.
Each model is also asked the probabilities of ``route_events``, which
reach each block an event's probability is read from, through the library
and, for mixed events, ``dppci prob``.
Then it passes malformed matrices and matrices whose spectrum lies at
either end of a kernel's range, within its rounding band, through every
public function that takes a kernel matrix, and through ``dppci validate``
and ``graph``.
Each call prints one line: the call's name, a digest of its arguments and
its result, floats as ``float.hex``, or the type and message of what it
raised; a command that ends in an exception prints its type. A change
that keeps every answer prints the same lines, in the same order. pytest
does not collect this module; ``tests/test_differential.py`` runs a small
slice of it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from dppci import (
    CiQuery,
    DppModel,
    EnsembleKernel,
    Event,
    IndexSet,
    MarginalKernel,
    SymMatrix,
    build_table,
    check_ci_given_inclusion,
    check_conditional_independence,
    check_marginal_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    complement_marginal,
    conditional_kernel,
    event_prob,
    exact_prob,
    graph_certified_ci,
    graph_certified_multiway_ci,
    inclusion_prob,
    induced_graph,
    k_from_l,
    l_from_k,
    mixed_prob,
    multiway_independence,
    process_independence,
    schur_complement,
    separates,
    separation_zero_block_report,
    validate_ensemble,
    validate_marginal,
)
from dppci.cli import main as cli_main
from dppci.kernels import DEFAULT_EPS_SPEC, _rounding_band
from generators import (
    ensemble_from_edges,
    random_marginal_matrix,
    random_orthogonal,
    random_tree_edges,
)

SIZES = range(3, 9)
# The first random queries of each model that also run through the CLI.
CLI_QUERIES = 2

# Raw (a, b, c, d) inputs by name, which the set-routing tests in
# test_kernels.py share: every form a set may take, and each way a set can
# be refused.
RAW_INPUTS = {
    "true": ([True], [3], [], []),
    "float": ([1.0], [4], [2], []),
    "np-int": ([np.int64(1)], [5], [3], [6]),
    "10**12": ([10**12], [2], [], []),
    "2**52": ([2**52], [2], [], []),
    "duplicates": ([2, 2, 1], [4, 4], [3, 3], []),
    "overlap": ([1, 2], [2, 5], [], []),
    "overlap-c-d": ([1], [5], [3], [3]),
    "out-of-range": ([1], [5], [7], [3]),
    "zero": ([1], [0], [], []),
    "other-types": (np.array([1, 2]), range(5, 7), (3,), IndexSet([4])),
    "scalars": (1, 5, 3, None),
    "separated": ([1], [5], [3], [4]),
    "adjacent": ([1, 2], [3, 4], [], [6]),
}

# Each public function that takes an index set, an Event or a CiQuery, as a
# call on a model, its table and the four sets a, b, c (excluded) and
# d (included) of one query.
CALLS = {
    "graph_certified_ci": lambda m, t, a, b, c, d: graph_certified_ci(m, a, b, c, d),
    "graph_certified_multiway_ci": lambda m, t, a, b, c, d: graph_certified_multiway_ci(
        m, [a, b, c], d
    ),
    "separates": lambda m, t, a, b, c, d: separates(induced_graph(m.ensemble), a, b, c),
    "process_independence": lambda m, t, a, b, c, d: process_independence(t, a, b, Event(d, c)),
    "multiway_independence": lambda m, t, a, b, c, d: multiway_independence(
        t, [a, b, c], Event(d)
    ),
    "event_prob": lambda m, t, a, b, c, d: event_prob(t, Event(a, b)),
    "prob_of": lambda m, t, a, b, c, d: t.prob_of(a),
    "check_conditional_independence": lambda m, t, a, b, c, d: check_conditional_independence(
        m, CiQuery(a, b, given_in=d, given_out=c)
    ),
    "check_marginal_independence": lambda m, t, a, b, c, d: check_marginal_independence(m, a, b),
    "check_ci_given_inclusion": lambda m, t, a, b, c, d: check_ci_given_inclusion(m, a, b, d),
    "check_pairwise_given_rest_included": lambda m, t, a, b, c, d: (
        check_pairwise_given_rest_included(m, a, b)
    ),
    "check_pairwise_given_rest_excluded": lambda m, t, a, b, c, d: (
        check_pairwise_given_rest_excluded(m, a, b)
    ),
    "inclusion_prob": lambda m, t, a, b, c, d: inclusion_prob(m, a),
    "exact_prob": lambda m, t, a, b, c, d: exact_prob(m, a),
    "mixed_prob": lambda m, t, a, b, c, d: mixed_prob(m, Event(a, b)),
    "conditional_kernel": lambda m, t, a, b, c, d: conditional_kernel(m, Event(a, b)),
    "schur_complement": lambda m, t, a, b, c, d: schur_complement(m.ensemble, a),
    "separation_zero_block_report": lambda m, t, a, b, c, d: separation_zero_block_report(
        m.ensemble, a, b, c
    ),
    "Event": lambda m, t, a, b, c, d: Event(a, b),
    "CiQuery": lambda m, t, a, b, c, d: CiQuery(a, b, given_in=d, given_out=c),
}

# Kernels given to the CLI besides the models: the demo K, the 3-chain L,
# an L whose K has an eigenvalue within the margin of 1, and a matrix that
# is neither kernel.
CLI_MATRICES = {
    "demo-K": "0.05,0,0.1\n0,0.8,0.2\n0.1,0.2,0.6\n",
    "chain-L": "2,0.4,0\n0.4,2,0.4\n0,0.4,2\n",
    "big-L": "1e11,0.5\n0.5,1\n",
    "indefinite": "1,2\n2,1\n",
}


# Matrices that no kernel check accepts for their form, by name: each way
# an array can fail to be a finite symmetric square matrix, and the finite
# matrices whose entries reach FLOAT_MAX / 2, where a sum or a difference
# of two entries overflows.
MALFORMED = {
    "1-D": [0.5, 0.1],
    "3-D": [[[0.5]]],
    "non-square": [[0.5, 0.1, 0.0], [0.1, 0.5, 0.0]],
    "ragged": [[0.5, 0.1], [0.1]],
    "non-numeric": [["a", "b"], ["c", "d"]],
    "nan": [[float("nan"), 0.0], [0.0, 0.5]],
    "+inf": [[float("inf"), 0.0], [0.0, 0.5]],
    "-inf": [[0.5, 0.0], [0.0, float("-inf")]],
    "asymmetric": [[0.5, 0.1], [0.1 + 1e-11, 0.5]],
    "overflow-diagonal": [[1e308, 0.0], [0.0, 1e308]],
    "overflow-off-diagonal": [[1.0, 9e307], [9e307, 1.0]],
    "overflow-asymmetric": [[1.0, 1e308], [-1e308, 1.0]],
}
# The sizes of the matrices drawn with a spectrum at an end of the range.
EDGE_SIZES = (3, 6)

# Each public function that takes a kernel matrix, as a call on one matrix.
# A kernel's constructor checks nothing, so the conversions see the
# spectrum as given.
KERNEL_CALLS = {
    "validate_marginal": validate_marginal,
    "validate_ensemble": validate_ensemble,
    "DppModel.from_marginal": DppModel.from_marginal,
    "DppModel.from_ensemble": DppModel.from_ensemble,
    "k_from_l": lambda m: k_from_l(EnsembleKernel(SymMatrix(m))),
    "l_from_k": lambda m: l_from_k(MarginalKernel(SymMatrix(m))),
    "complement_marginal": lambda m: complement_marginal(MarginalKernel(SymMatrix(m))),
    "schur_complement": lambda m: schur_complement(m, [1]),
    "separation_zero_block_report": lambda m: separation_zero_block_report(
        m, [1], [2], range(3, len(m) + 1)
    ),
}


def canon(value) -> str:
    """value as text that is equal exactly when the values are: floats as
    float.hex, sets as their members, records as their fields."""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, IndexSet):
        return "{" + ",".join(map(str, value)) + "}"
    if isinstance(value, SymMatrix):
        return canon(value.array)
    if isinstance(value, np.ndarray):
        return canon(value.tolist())
    if isinstance(value, (list, tuple)) and not hasattr(value, "_fields"):
        return "[" + ",".join(map(canon, value)) + "]"
    if hasattr(value, "_fields"):  # a NamedTuple
        pairs = zip(value._fields, value)
    elif dataclasses.is_dataclass(value):
        pairs = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
    else:
        raise TypeError(f"no canonical form for {type(value).__name__}")
    return type(value).__name__ + "(" + ",".join(f"{k}={canon(v)}" for k, v in pairs) + ")"


def digest(value) -> str:
    """A short text of a call's argument that tells its type apart: a
    numpy int from an int, an array from a list."""
    if isinstance(value, np.ndarray):
        return f"array{value.tolist()}"
    if isinstance(value, np.generic):
        return f"{type(value).__name__}({value.item()!r})"
    if isinstance(value, (list, tuple)):
        inner = ",".join(map(digest, value))
        return f"[{inner}]" if isinstance(value, list) else f"({inner})"
    return repr(value)


def outcome(call, *args) -> str:
    """The canonical result of call(*args), or the type and message it raised."""
    try:
        return "= " + canon(call(*args))
    except Exception as exc:  # every error is an answer to compare
        return f"! {type(exc).__name__}: {exc}"


def run_cli(argv: list) -> str:
    """dppci argv through cli.main: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback at the command line: its type is the answer
            code = f"raised {type(exc).__name__}"
    return f"= exit {code} out {out.getvalue().strip()!r} err {err.getvalue().strip()!r}"


def models(rng: np.random.Generator, sizes):
    """(tag, kind, matrix, model) for a dense K and a sparse L at each size:
    a random tree plus up to n extra edges."""
    for n in sizes:
        k = random_marginal_matrix(rng, n)
        yield f"K{n}", "K", k, DppModel.from_marginal(k)
        edges = set(random_tree_edges(rng, n))
        for _ in range(int(rng.integers(0, n + 1))):
            i, j = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False).tolist())
            edges.add((i, j))
        ell = ensemble_from_edges(rng, n, sorted(edges))
        yield f"L{n}", "L", ell, DppModel.from_ensemble(ell)


def random_query(rng: np.random.Generator, n: int) -> tuple:
    """Four disjoint random sets (a, b, c, d) over {1..n}, as sorted lists."""
    labels = rng.integers(0, 5, size=n)
    return tuple([int(i) + 1 for i in np.flatnonzero(labels == g)] for g in (1, 2, 3, 4))


def edge_matrices(rng: np.random.Generator):
    """(tag, matrix) for spectra at each end of a kernel's range: one
    eigenvalue at eps ± delta, or 1 - eps ± delta for a marginal kernel,
    eps = DEFAULT_EPS_SPEC and delta the kernel's rounding band, the others
    drawn from (0.2, 0.8)."""
    eps = DEFAULT_EPS_SPEC
    for n in EDGE_SIZES:
        vecs = random_orthogonal(rng, n)
        w = rng.uniform(0.2, 0.8, size=n)
        for kind, end, edge in (("K", "eps", eps), ("K", "1-eps", 1.0 - eps), ("L", "eps", eps)):
            w[0] = edge
            delta = _rounding_band(SymMatrix((vecs * w) @ vecs.T), kind == "K")
            for sign, side in ((-1.0, "-delta"), (1.0, "+delta")):
                w[0] = edge + sign * delta
                yield f"{kind}{n}-{end}{side}", ((vecs * w) @ vecs.T).tolist()


def route_events(n: int) -> list:
    """(function, include, exclude) of the probabilities each model is asked
    besides its queries, so that each block an event's probability can be
    read from is reached: K's bordered block (one included and one excluded
    element), L + I on the rest (more than half of {1..n} excluded; Y = A at
    sizes 0, 1, n // 2 and n - 1), and K's spectrum (the full set)."""
    everyone = list(range(1, n + 1))
    over_half = everyone[n - (n // 2 + 1):]
    return [
        ("mixed_prob", [1], [2]),
        ("mixed_prob", [1], over_half),
        *(("exact_prob", everyone[:size], []) for size in sorted({0, 1, n // 2, n - 1, n})),
        ("inclusion_prob", everyone, []),
        ("mixed_prob", everyone, []),
    ]


ROUTE_CALLS = {
    "mixed_prob": lambda m, a, b: mixed_prob(m, Event(a, b)),
    "exact_prob": lambda m, a, b: exact_prob(m, a),
    "inclusion_prob": lambda m, a, b: inclusion_prob(m, a),
}


def cli_calls(kind: str, path: str, query: tuple) -> list:
    """The dppci commands run on one model's file for one query."""
    a, b, c, d = (",".join(map(str, s)) for s in query)
    base = ["--matrix", path, "--kind", kind]
    return [
        ["ci", *base, "--a", a, "--b", b, "--given-in", d, "--given-out", c, "--oracle"],
        ["prob", *base, "--include", a, "--exclude", b, "--oracle"],
        ["prob", *base, "--include", a, "--exact", "--oracle"],
        ["graph", *base, "--separates", a, b, c],
        ["graph", *base, "--tol", "0.3", "--separates", a, b, c],
    ]


def validate_and_graph(tag: str, path: str):
    """The lines of ``dppci validate`` and ``graph`` on one matrix file, as K and as L."""
    for kind in ("K", "L"):
        for command in ("validate", "graph"):
            result = run_cli([command, "--matrix", path, "--kind", kind])
            yield f"cli {command} {tag} --kind {kind} {result.replace(path, tag)}"


def lines(seed: int, queries: int = 20, sizes=SIZES):
    """The differential's lines for one seed, in order."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for tag, rows in CLI_MATRICES.items():
            path = str(Path(tmp) / f"{tag}.csv")
            Path(path).write_text(rows)
            yield from validate_and_graph(tag, path)
        for tag, kind, matrix, model in models(rng, sizes):
            table = build_table(model)
            for k, raw in enumerate(RAW_INPUTS.values()):
                for name, call in CALLS.items():
                    yield f"{name} {tag} raw{k} {digest(raw)} {outcome(call, model, table, *raw)}"
            path = str(Path(tmp) / f"{tag}.csv")
            np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
            for q in range(queries):
                query = random_query(rng, model.n)
                for name, call in CALLS.items():
                    yield f"{name} {tag} q{q} {digest(query)} {outcome(call, model, table, *query)}"
                for argv in cli_calls(kind, path, query) if q < CLI_QUERIES else []:
                    result = run_cli(argv).replace(path, tag)
                    yield f"cli {argv[0]} {tag} q{q} {digest(argv[3:])} {result}"
            for name, a, b in route_events(model.n):
                yield f"{name} {tag} route {digest((a, b))} {outcome(ROUTE_CALLS[name], model, a, b)}"
                if name == "mixed_prob":
                    argv = ["prob", "--matrix", path, "--kind", kind, "--include",
                            ",".join(map(str, a)), "--exclude", ",".join(map(str, b)), "--oracle"]
                    result = run_cli(argv).replace(path, tag)
                    yield f"cli prob {tag} route {digest(argv[3:])} {result}"
        for tag, matrix in [*MALFORMED.items(), *edge_matrices(rng)]:
            for name, call in KERNEL_CALLS.items():
                yield f"{name} {tag} {outcome(call, matrix)}"
            path = str(Path(tmp) / f"{tag}.json")
            Path(path).write_text(json.dumps(matrix))
            yield from validate_and_graph(tag, path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    count = 0
    for line in lines(args.seed):
        print(line)
        count += 1
    print(f"# {count} calls, seed {args.seed}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
