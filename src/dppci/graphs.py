"""Graph certificates for DPP independence.

The graph induced by a symmetric matrix joins i and j when |M_ij| is above
a scaled threshold. Separation in the graph of the L-ensemble kernel
certifies conditional independence given exclusions; the converse fails in
general, so graph queries return a one-sided verdict, never a plain "no".
The graph is one int bitmask per vertex, packed by numpy; separation is a
bit flood of G - C from each part but the last.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyQuerySetError
from .kernels import (
    DEFAULT_ZERO_TOL,
    IndexSetLike,
    MatrixLike,
    _as_sym,
    _bits,
    _check_spectrum,
    _check_tolerance,
    _condition,
    _eigh,
    _inverse,
    _query_masks,
    _zero_threshold,
)
from .probability import DppModel


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """Undirected graph on {1..n}: bit j - 1 of ``adjacency[i - 1]`` joins i and j."""

    n: int
    adjacency: tuple[int, ...]
    tolerance_used: float

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(
            (i, i + k)
            for i, mask in enumerate(self.adjacency, 1)
            for k in _bits(mask >> i)
        )

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"InducedGraph(n={self.n}, edges={len(self.edges)})"


def induced_graph(m: MatrixLike, zero_tol: float = DEFAULT_ZERO_TOL) -> InducedGraph:
    """Graph of the nonzero off-diagonal pattern of m.

    The edge threshold is zero_tol times the largest absolute entry of the
    full matrix, so rescaling m never changes the graph. A SymMatrix (a
    kernel's too) is immutable, so it keeps its graph for each zero_tol,
    keyed by the Python float of the checked tolerance: an int or a numpy
    scalar finds the graph of the equal float. Only a checked key is ever
    stored, so a plain float is looked up before its check. A plain array or
    list is a new SymMatrix, so it is rebuilt each call.
    """
    sym = _as_sym(m)
    memo = sym._graphs
    graph = memo.get(zero_tol) if type(zero_tol) is float else None
    if graph is None:
        key = _check_tolerance("zero_tol", zero_tol)
        graph = memo.get(key)
        if graph is None:
            thr = _zero_threshold(sym.max_abs(), key)
            joined = np.abs(sym.array) > thr
            np.fill_diagonal(joined, False)
            rows = np.packbits(joined, axis=1, bitorder="little")
            adjacency = tuple(int.from_bytes(row.tobytes(), "little") for row in rows)
            graph = memo[key] = InducedGraph(n=sym.n, adjacency=adjacency, tolerance_used=thr)
    return graph


def separates(
    graph: InducedGraph,
    a: IndexSetLike,
    b: IndexSetLike,
    c: IndexSetLike = None,
) -> bool:
    """True when every path from A to B passes through C.

    A and B must be nonempty and A, B, C pairwise disjoint. Runs one flood
    from A over vertices outside C and reports whether it ever touches B.
    """
    amask, bmask, cmask = _query_masks(graph.n, (a, b, c), ("a", "b", "c"))
    return _separated(graph, [amask, bmask], cmask)


def _separated(graph: InducedGraph, parts: list[int], c: int) -> bool:
    """Whether C separates every pair of the given parts, all as bitmasks of
    sets already validated: a bit flood of G - C from each part but the
    last, with C in its reach from the start, fails as soon as it meets
    another part. The last part only has to be met; for two parts this is
    one flood from A.
    """
    if not all(parts):
        raise EmptyQuerySetError("separation query needs nonempty A and B")
    union = sum(parts)  # the parts are disjoint
    adjacency = graph.adjacency
    for mask in parts[:-1]:
        reach, frontier = mask | c, mask
        while frontier:
            step = 0
            while frontier:  # the neighbours of each frontier vertex, lowest bit first
                low = frontier & -frontier
                step |= adjacency[low.bit_length() - 1]
                frontier ^= low
            frontier = step & ~reach
            if frontier & union:
                return False
            reach |= frontier
    return True


class GraphVerdict(Enum):
    """One-sided outcome of a graph certificate.

    NOT_CERTIFIED means the certificate does not apply; the processes may
    still be independent.
    """

    CERTIFIED_INDEPENDENT = "certified-independent"
    NOT_CERTIFIED = "not-certified"

    @property
    def is_certified(self) -> bool:
        return self is GraphVerdict.CERTIFIED_INDEPENDENT


def graph_certified_ci(
    model: DppModel,
    a: IndexSetLike,
    b: IndexSetLike,
    c: IndexSetLike = None,
    d: IndexSetLike = None,
) -> GraphVerdict:
    """Certificate for Y_A ⊥ Y_B given C ∩ Y = ∅ (and optionally D ⊆ Y).

    If C separates A from B in the graph of the L-ensemble kernel, the
    conditional independence holds; the D-inclusion variant uses the same
    separation. Empty A or B is certified trivially. This is the two-part
    case of :func:`graph_certified_multiway_ci`.
    """
    return graph_certified_multiway_ci(model, [a, b], c, d)


def graph_certified_multiway_ci(
    model: DppModel,
    parts: Sequence[IndexSetLike],
    c: IndexSetLike = None,
    d: IndexSetLike = None,
) -> GraphVerdict:
    """Certificate for mutual independence of (Y_{A_1}, ..., Y_{A_m}) given
    C ∩ Y = ∅ (and optionally D ⊆ Y): C must separate every pair of parts,
    which one search of G - C decides for all pairs at once. Empty parts are
    constant restrictions and are dropped first. L's graph is at DEFAULT_ZERO_TOL;
    for another, ask ``separates(induced_graph(model.ensemble, zero_tol), ...)``."""
    *pmasks, cmask, _ = _query_masks(model.n, [*parts, c, d], ("c", "d"))
    nonempty = [p for p in pmasks if p]
    if len(nonempty) <= 1:
        return GraphVerdict.CERTIFIED_INDEPENDENT
    g = induced_graph(model.ensemble)
    if _separated(g, nonempty, cmask):
        return GraphVerdict.CERTIFIED_INDEPENDENT
    return GraphVerdict.NOT_CERTIFIED


@dataclass(frozen=True)
class SchurZeroReport:
    """Outcome of the inverse-graph separation check on a PD matrix.

    When C separates A and B in the graph of M^{-1}, the Schur complement
    block (M / M_C)_{A,B} must vanish; ``residual`` is its largest entry and
    ``threshold`` the conditioning-aware bound it is held to. ``passed`` is
    None when no separation held, so there was nothing to verify.
    """

    separated: bool
    residual: float
    threshold: float
    passed: Optional[bool]


def separation_zero_block_report(
    m: MatrixLike,
    a: IndexSetLike,
    b: IndexSetLike,
    c: IndexSetLike = None,
) -> SchurZeroReport:
    """Check the zero-block consequence of separation in the inverse graph.

    m must be symmetric positive definite. The graph and the threshold are at
    DEFAULT_ZERO_TOL, and the threshold scales with the square root of the
    condition number of M_C, since that is how much the Schur solve can
    amplify rounding in otherwise exact zeros.
    """
    ens = _eigh(m)
    if ens.w.size and not ens.w[0] > 0.0:  # any positive definite m, however close to singular
        _check_spectrum(ens.w, marginal=False)  # raises: its margin is above w[0]
    sym = ens.matrix
    amask, bmask, cmask = _query_masks(sym.n, (a, b, c), ("a", "b", "c"))
    g = induced_graph(_inverse(ens))
    separated = _separated(g, [amask, bmask], cmask)
    step = _condition(sym, cmask, 0)
    residual = float(np.max(np.abs(step.block(amask, bmask))))
    wc = step.w
    cond_c = float(np.prod(wc[-1:] / wc[:1]))  # λ_max / λ_min of M_C, 1 for empty C
    threshold = _zero_threshold(sym.max_abs(), DEFAULT_ZERO_TOL, cond_c**0.5)
    passed = bool(residual <= threshold) if separated else None
    return SchurZeroReport(separated, residual, threshold, passed)
