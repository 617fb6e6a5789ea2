"""Command-line interface.

Subcommands: validate, prob, ci, graph, demo-counterexample. Results go to
stdout as one JSON document (floats at 17 significant digits); diagnostics
go to stderr. Exit codes: 0 success, 1 I/O or parse or query error,
2 kernel validation failure, 3 failed assertion or demo.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import (
    DppError,
    GroundSetTooLargeError,
    KernelValidationError,
    ParseError,
)
from .graphs import GraphVerdict, induced_graph, separates
from .independence import CiQuery, check_conditional_independence, counterexample_demo
from .kernels import (
    DEFAULT_ZERO_TOL,
    Event,
    _asymmetry,
    _check_tolerance,
    _eigh,
    validate_ensemble,
    validate_marginal,
)
from .oracle import build_table, event_prob, multiway_independence
from .probability import DppModel, exact_prob, mixed_prob

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID_KERNEL = 2
EXIT_ASSERTION = 3


class _Parser(argparse.ArgumentParser):
    # Usage errors share exit code 1 with parse errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def render_json(value) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"non-finite value {v!r} in JSON output")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{render_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in value) + "]"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def _emit(payload: dict) -> None:
    sys.stdout.write(render_json(payload) + "\n")


def _diag(message: str) -> None:
    print(f"dppci: {message}", file=sys.stderr)


def parse_index_list(text: str):
    """Comma-separated 1-based indices; the empty string is the empty set."""
    if text.strip() == "":
        return ()
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}") from None


def load_matrix(path: str) -> np.ndarray:
    """Read a square matrix from a JSON or delimited text file.

    JSON form: ``{"n": 3, "rows": [[...], ...]}`` or a bare list of rows, each
    entry a JSON number (``NaN`` and ``Infinity`` are read as numbers).
    Text form: one row per line, entries separated by commas or whitespace.
    """
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") or stripped.startswith("["):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        if isinstance(doc, dict):
            rows = doc.get("rows")
            if not isinstance(rows, list):
                raise ParseError(f'{path}: JSON object needs a "rows" list')
            declared = doc.get("n", len(rows))
            if type(declared) is not int:  # bool is not an int here
                raise ParseError(f'{path}: "n" must be an integer, got {declared!r}')
            if declared != len(rows):
                raise ParseError(f"{path}: n={declared} but {len(rows)} rows given")
        else:
            rows = doc
        for row in rows:
            for entry in row if isinstance(row, list) else [row]:
                if type(entry) not in (int, float):  # not isinstance: a bool is an int
                    raise ParseError(f"{path}: matrix entry {json.dumps(entry)} is not a number")
    else:
        rows = []
        for line in text.splitlines():
            tokens = line.replace(",", " ").split()
            if not tokens:
                continue
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError as exc:
                raise ParseError(f"{path}: non-numeric entry: {exc}") from exc
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: not a numeric matrix: {exc}") from exc
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.size == 0:
        raise ParseError(f"{path}: expected a nonempty square matrix, got shape {arr.shape}")
    return arr


def _build_model(args) -> DppModel:
    arr = load_matrix(args.matrix)
    if args.kind == "K":
        return DppModel.from_marginal(arr)
    return DppModel.from_ensemble(arr)


def cmd_validate(args) -> int:
    arr = load_matrix(args.matrix)
    # A non-finite entry has no residual, nor has an asymmetry beyond the
    # largest float; _eigh below names either.
    residual = _asymmetry(arr, float(np.abs(arr).max())) if np.isfinite(arr).all() else math.inf
    report = {
        "file": args.matrix,
        "kind": args.kind,
        "n": int(arr.shape[0]),
        "symmetry_residual": residual if math.isfinite(residual) else None,
        "eigenvalue_min": None,
        "eigenvalue_max": None,
        "valid": False,
        "error": None,
    }
    try:
        kernel = _eigh(arr)
        report["eigenvalue_min"] = float(kernel.w[0])
        report["eigenvalue_max"] = float(kernel.w[-1])
        (validate_marginal if args.kind == "K" else validate_ensemble)(kernel)
    except KernelValidationError as exc:
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        _emit(report)
        return EXIT_INVALID_KERNEL
    report["valid"] = True
    _emit(report)
    return EXIT_OK


def cmd_prob(args) -> int:
    include, exclude = args.include, args.exclude
    if args.exact and exclude:
        raise ParseError("--exact fixes Y exactly; --exclude cannot be combined with it")
    model = _build_model(args)
    if args.exact:
        p = exact_prob(model, include)
        formula = "(-1)^|B| det(K - diag(1_B)), B = complement of A"
    else:
        p = mixed_prob(model, Event(include, exclude))
        formula = "(-1)^|B| det([[K_A, K_AB], [K_BA, K_B - I]])" if exclude else "det(K_A)"
    payload = {
        "n": model.n,
        "kind": args.kind,
        "include": list(include),
        "exclude": list(exclude),
        "exact": bool(args.exact),
        "probability": p,
        "formula": formula,
        "oracle": None,
    }
    if args.oracle:
        try:
            table = build_table(model)
            ref = table.prob_of(include) if args.exact else event_prob(table, Event(include, exclude))
            payload["oracle"] = {"probability": ref, "residual": abs(p - ref)}
        except GroundSetTooLargeError as exc:
            _diag(f"oracle skipped: {exc}")
    _emit(payload)
    return EXIT_OK


def cmd_ci(args) -> int:
    model = _build_model(args)
    query = CiQuery(args.a, args.b, given_in=args.given_in, given_out=args.given_out)
    verdict = check_conditional_independence(model, query, args.tol)
    payload = {
        "n": model.n,
        "kind": args.kind,
        "a": list(query.a),
        "b": list(query.b),
        "given_in": list(query.given.include),
        "given_out": list(query.given.exclude),
        "independent": verdict.independent,
        "criterion": verdict.criterion,
        "criterion_value": verdict.criterion_value,
        "tolerance_used": verdict.tolerance_used,
        "oracle": None,
    }
    if args.oracle:
        try:
            table = build_table(model)
            check = multiway_independence(table, [query.a, query.b], query.given)
            payload["oracle"] = {
                "independent": check.independent,
                "residual": check.residual,
            }
        except DppError as exc:
            _diag(f"oracle skipped: {exc}")
    _emit(payload)
    if args.assert_independent and not verdict.independent:
        _diag("assertion failed: query is not independent")
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_graph(args) -> int:
    # The graph reads only the kernel given, so only that kernel is validated.
    validate = validate_marginal if args.kind == "K" else validate_ensemble
    graph = induced_graph(validate(load_matrix(args.matrix)), args.tol)
    payload = {
        "n": graph.n,
        "kind": args.kind,
        "tolerance_used": graph.tolerance_used,
        "edges": [list(e) for e in graph.sorted_edges()],
        "dot": None,
        "separation": None,
    }
    if args.dot:
        Path(args.dot).write_text(to_dot(graph))
        payload["dot"] = args.dot
    if args.separates is not None:
        a, b, c = args.separates
        sep = separates(graph, a, b, c)
        entry = {"a": list(a), "b": list(b), "c": list(c), "separates": sep, "verdict": None}
        if args.kind == "L":
            verdict = GraphVerdict.CERTIFIED_INDEPENDENT if sep else GraphVerdict.NOT_CERTIFIED
            entry["verdict"] = verdict.value
        payload["separation"] = entry
    _emit(payload)
    return EXIT_OK


def to_dot(graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {i};" for i in range(1, graph.n + 1)]
    lines += [f"  {i} -- {j};" for i, j in graph.sorted_edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_demo(args) -> int:
    report = counterexample_demo()
    if args.json:
        _emit(report.as_dict())
    else:
        print(report.to_text())
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _add_kernel_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--matrix", required=True, help="path to the kernel matrix file")
    p.add_argument("--kind", choices=["K", "L"], required=True,
                   help="K = marginal kernel, L = ensemble kernel")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dppci",
                     description="Independence structure of determinantal point processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[], help="validate a kernel matrix")
    _add_kernel_args(p)
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("prob", help="probability of an inclusion/exclusion event")
    _add_kernel_args(p)
    p.add_argument("--include", type=parse_index_list, default=(),
                   help="comma-separated elements required inside Y")
    p.add_argument("--exclude", type=parse_index_list, default=(),
                   help="comma-separated elements required outside Y")
    p.add_argument("--exact", action="store_true",
                   help="probability that Y equals the --include set exactly")
    p.add_argument("--oracle", action="store_true",
                   help="confirm against exhaustive enumeration (n <= 20)")
    p.set_defaults(handler=cmd_prob)

    p = sub.add_parser("ci", help="zero-block conditional independence test")
    _add_kernel_args(p)
    p.add_argument("--a", type=parse_index_list, required=True)
    p.add_argument("--b", type=parse_index_list, required=True)
    p.add_argument("--given-in", type=parse_index_list, default=(),
                   help="condition on these elements being in Y")
    p.add_argument("--given-out", type=parse_index_list, default=(),
                   help="condition on these elements being outside Y")
    p.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL,
                   help="relative zero tolerance (default: %(default)g)")
    p.add_argument("--oracle", action="store_true",
                   help="confirm against exhaustive enumeration (n <= 20)")
    p.add_argument("--assert-independent", action="store_true",
                   help="exit 3 unless the verdict is independent")
    p.set_defaults(handler=cmd_ci)

    p = sub.add_parser("graph", help="induced graph, DOT export, separation queries")
    _add_kernel_args(p)
    p.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOL,
                   help="relative edge threshold (default: %(default)g)")
    p.add_argument("--dot", metavar="PATH", default=None, help="write Graphviz DOT here")
    p.add_argument("--separates", nargs=3, type=parse_index_list, metavar=("A", "B", "C"),
                   help="three comma-separated index lists; C may be empty ''")
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("demo-counterexample",
                       help="show event independence without a zero kernel block")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(handler=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "tol"):
            _check_tolerance("--tol", args.tol)
        return args.handler(args)
    except (ParseError, OSError) as exc:
        _diag(str(exc))
        return EXIT_ERROR
    except KernelValidationError as exc:
        _diag(f"invalid kernel: {exc}")
        return EXIT_INVALID_KERNEL
    except DppError as exc:
        _diag(str(exc))
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
