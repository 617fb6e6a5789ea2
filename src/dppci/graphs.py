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
    _compose,
    _eigh,
    _positions,
    as_index_set,
    check_disjoint,
    schur_complement,
    submatrix,
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

    A and B must be nonempty and A, B, C pairwise disjoint. Runs a BFS from
    A over vertices outside C and reports whether it ever touches B.
    """
    aset, bset, cset = as_index_set(a), as_index_set(b), as_index_set(c)
    if not aset or not bset:
        raise EmptyQuerySetError("separation query needs nonempty A and B")
    check_disjoint(a=aset, b=bset, c=cset)
    for s, name in ((aset, "a"), (bset, "b"), (cset, "c")):
        s.check_within(graph.n, name)
    blocked = set(cset)
    targets = set(bset)
    seen = set(aset)
    queue = deque(aset)
    while queue:
        v = queue.popleft()
        for w in graph._adjacency[v]:
            if w in blocked or w in seen:
                continue
            if w in targets:
                return False
            seen.add(w)
            queue.append(w)
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
    separation. Empty A or B is certified trivially.
    """
    aset, bset = as_index_set(a), as_index_set(b)
    cset, dset = as_index_set(c), as_index_set(d)
    check_disjoint(a=aset, b=bset, c=cset, d=dset)
    for s, name in ((aset, "a"), (bset, "b"), (cset, "c"), (dset, "d")):
        s.check_within(model.n, name)
    if not aset or not bset:
        return GraphVerdict.CERTIFIED_INDEPENDENT
    g = induced_graph(model.ensemble.matrix, zero_tol)
    if separates(g, aset, bset, cset):
        return GraphVerdict.CERTIFIED_INDEPENDENT
    return GraphVerdict.NOT_CERTIFIED


def graph_certified_multiway_ci(
    model: DppModel,
    parts: Sequence[IndexSetLike],
    c: IndexSetLike = None,
    d: IndexSetLike = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> GraphVerdict:
    """Certificate for mutual independence of (Y_{A_1}, ..., Y_{A_m}) given
    C ∩ Y = ∅ (and optionally D ⊆ Y): C must separate every pair of parts."""
    psets = [as_index_set(p) for p in parts]
    cset, dset = as_index_set(c), as_index_set(d)
    named = {f"part{k + 1}": p for k, p in enumerate(psets)}
    check_disjoint(c=cset, d=dset, **named)
    for name, s in named.items():
        s.check_within(model.n, name)
    cset.check_within(model.n, "c")
    dset.check_within(model.n, "d")
    nonempty = [p for p in psets if p]
    if len(nonempty) <= 1:
        return GraphVerdict.CERTIFIED_INDEPENDENT
    g = induced_graph(model.ensemble.matrix, zero_tol)
    for i in range(len(nonempty)):
        for j in range(i + 1, len(nonempty)):
            if not separates(g, nonempty[i], nonempty[j], cset):
                return GraphVerdict.NOT_CERTIFIED
    return GraphVerdict.CERTIFIED_INDEPENDENT


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
    aset, bset, cset = as_index_set(a), as_index_set(b), as_index_set(c)
    check_disjoint(a=aset, b=bset, c=cset)
    for s, name in ((aset, "a"), (bset, "b"), (cset, "c")):
        s.check_within(sym.n, name)
    w, vecs = _eigh(sym)
    if w.size and float(w[0]) <= 0.0:
        raise SpectrumOutOfRangeError(
            f"positive definite matrix required; smallest eigenvalue is {float(w[0]):.6e}",
            eigenvalue=float(w[0]),
        )
    g = induced_graph(_compose(vecs, 1.0 / w), zero_tol)
    separated = separates(g, aset, bset, cset)
    s = schur_complement(sym, cset, eps_spec)
    remaining = tuple(cset.complement(sym.n))
    ai, bi = _positions(remaining, aset), _positions(remaining, bset)
    residual = float(np.max(np.abs(s.array[np.ix_(ai, bi)])))
    if cset:
        wc = np.linalg.eigvalsh(submatrix(sym, cset).array)
        cond_c = float(wc[-1] / wc[0])
    else:
        cond_c = 1.0
    threshold = zero_tol * sym.max_abs() * np.sqrt(cond_c)
    passed = (residual <= threshold) if separated else None
    return SchurZeroReport(separated, residual, threshold, passed)
