"""Graph certificates for DPP independence.

The graph induced by a symmetric matrix joins i and j when |M_ij| is above
a scaled threshold. Separation in the graph of the L-ensemble kernel
certifies conditional independence given exclusions; the converse fails in
general, so graph queries return a one-sided verdict, never a plain "no".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyQuerySetError, SpectrumOutOfRangeError
from .kernels import (
    DEFAULT_EPS_SPEC,
    DEFAULT_ZERO_TOL,
    IndexSet,
    IndexSetLike,
    MatrixLike,
    _as_sym,
    _check_tolerance,
    _compose,
    _eigh,
    _positions,
    _query_sets,
    _schur,
)
from .probability import DppModel


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """Undirected graph on {1..n} with an edge where |M_ij| exceeds the threshold."""

    n: int
    edges: frozenset
    tolerance_used: float

    @cached_property
    def _adjacency(self) -> dict:
        adj = {i: set() for i in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def neighbors(self, i: int) -> frozenset:
        return frozenset(self._adjacency[i])

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self) -> str:
        return f"InducedGraph(n={self.n}, edges={len(self.edges)})"


def induced_graph(m: MatrixLike, zero_tol: float = DEFAULT_ZERO_TOL) -> InducedGraph:
    """Graph of the nonzero off-diagonal pattern of m.

    The edge threshold is zero_tol times the largest absolute entry of the
    full matrix, so rescaling m never changes the graph.
    """
    _check_tolerance("zero_tol", zero_tol)
    sym = _as_sym(m)
    arr = sym.array
    n = sym.n
    scale = sym.max_abs()
    thr = zero_tol * scale if scale > 0 else zero_tol
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if abs(arr[i, j]) > thr:
                edges.add((i + 1, j + 1))
    return InducedGraph(n=n, edges=frozenset(edges), tolerance_used=thr)


def separates(
    graph: InducedGraph,
    a: IndexSetLike,
    b: IndexSetLike,
    c: IndexSetLike = None,
) -> bool:
    """True when every path from A to B passes through C.

    A and B must be nonempty and A, B, C pairwise disjoint. Runs one search
    from A over vertices outside C and reports whether it ever touches B.
    """
    aset, bset, cset = _query_sets(graph.n, a=a, b=b, c=c)
    return _separated(graph, [aset, bset], cset)


def _separated(graph: InducedGraph, parts: list[IndexSet], c: IndexSet) -> bool:
    """Whether C separates every pair of the given parts, on sets already
    validated: one search over the vertices outside C.

    Each part's vertices are marked with the part's index. The search floods
    from every part but the last, carrying the mark of the part it started
    from, and fails as soon as two different marks meet on an edge. The last
    part only has to be met, so nothing floods from it; for two parts this
    is a BFS from A that fails on touching B.
    """
    if not all(parts):
        raise EmptyQuerySetError("separation query needs nonempty A and B")
    blocked = set(c)
    mark = {v: k for k, p in enumerate(parts) for v in p}
    queue = deque(v for p in parts[:-1] for v in p)
    while queue:
        v = queue.popleft()
        k = mark[v]
        for w in graph._adjacency[v]:
            if w in blocked:
                continue
            seen = mark.get(w)
            if seen is None:
                mark[w] = k
                queue.append(w)
            elif seen != k:
                return False
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
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> GraphVerdict:
    """Certificate for Y_A ⊥ Y_B given C ∩ Y = ∅ (and optionally D ⊆ Y).

    If C separates A from B in the graph of the L-ensemble kernel, the
    conditional independence holds; the D-inclusion variant uses the same
    separation. Empty A or B is certified trivially. This is the two-part
    case of :func:`graph_certified_multiway_ci`.
    """
    return graph_certified_multiway_ci(model, [a, b], c, d, zero_tol)


def graph_certified_multiway_ci(
    model: DppModel,
    parts: Sequence[IndexSetLike],
    c: IndexSetLike = None,
    d: IndexSetLike = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> GraphVerdict:
    """Certificate for mutual independence of (Y_{A_1}, ..., Y_{A_m}) given
    C ∩ Y = ∅ (and optionally D ⊆ Y): C must separate every pair of parts,
    which one search of G - C decides for all pairs at once. Empty parts are
    constant restrictions and are dropped first."""
    _check_tolerance("zero_tol", zero_tol)
    named = {f"part{k}": p for k, p in enumerate(parts, 1)}
    *psets, cset, _ = _query_sets(model.n, **named, c=c, d=d)
    nonempty = [p for p in psets if p]
    if len(nonempty) <= 1:
        return GraphVerdict.CERTIFIED_INDEPENDENT
    g = induced_graph(model.ensemble.matrix, zero_tol)
    if _separated(g, nonempty, cset):
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
    zero_tol: float = DEFAULT_ZERO_TOL,
    eps_spec: float = DEFAULT_EPS_SPEC,
) -> SchurZeroReport:
    """Check the zero-block consequence of separation in the inverse graph.

    m must be symmetric positive definite. The threshold scales with the
    square root of the condition number of M_C, since that is how much the
    Schur solve can amplify rounding in otherwise exact zeros.
    """
    sym = _as_sym(m)
    aset, bset, cset = _query_sets(sym.n, a=a, b=b, c=c)
    w, vecs = _eigh(sym)
    if w.size and float(w[0]) <= 0.0:
        raise SpectrumOutOfRangeError(
            f"positive definite matrix required; smallest eigenvalue is {float(w[0]):.6e}",
            eigenvalue=float(w[0]),
        )
    g = induced_graph(_compose(vecs, 1.0 / w), zero_tol)
    separated = _separated(g, [aset, bset], cset)
    s, wc = _schur(sym, cset, eps_spec)
    remaining = tuple(cset.complement(sym.n))
    ai, bi = _positions(remaining, aset), _positions(remaining, bset)
    residual = float(np.max(np.abs(s.array.take(ai, 0).take(bi, 1))))
    cond_c = float(wc[-1] / wc[0]) if cset else 1.0
    threshold = zero_tol * sym.max_abs() * cond_c**0.5
    passed = bool(residual <= threshold) if separated else None
    return SchurZeroReport(separated, residual, threshold, passed)
