"""Seeded input generators. Everything here is plain numpy and Python lists.

Index sets handed to dppci are lists of 1-based ints, as a caller would
write them; the library does its own conversion.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def dense_marginal(rng, n, lo=0.08, hi=0.92):
    """Dense symmetric K with eigenvalues drawn uniformly from (lo, hi)."""
    q = random_orthogonal(rng, n)
    k = (q * rng.uniform(lo, hi, size=n)) @ q.T
    return (k + k.T) / 2.0


def ensemble_from_edges(rng, n, edges, wlo=0.2, whi=0.45):
    """Strictly diagonally dominant L whose nonzero pattern is exactly `edges`."""
    l = np.zeros((n, n))
    for i, j in edges:
        w = rng.uniform(wlo, whi) * rng.choice([-1.0, 1.0])
        l[i - 1, j - 1] = l[j - 1, i - 1] = w
    l[np.diag_indices(n)] = np.abs(l).sum(axis=1) + rng.uniform(0.3, 1.0, size=n)
    return l


def chain_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def star_edges(n):
    return [(1, j) for j in range(2, n + 1)]


def random_tree_edges(rng, n):
    return [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]


def block_clique_edges(sizes):
    """Disjoint cliques of the given sizes, laid side by side."""
    edges, pos = [], 1
    for size in sizes:
        verts = range(pos, pos + size)
        edges += [(i, j) for i in verts for j in verts if i < j]
        pos += size
    return edges


def banded_ensemble(rng, n, width=3, top=20.0):
    """Banded positive definite L with bandwidth `width`, spectrum rescaled to end at `top`.

    Returns (L, eigenvalues, eigenvectors) so callers can build references
    from the exact spectral factors.
    """
    l = np.zeros((n, n))
    for k in range(1, width + 1):
        idx = np.arange(n - k)
        off = rng.uniform(0.2, 1.0, size=n - k) * rng.choice([-1.0, 1.0], size=n - k)
        l[idx, idx + k] = off
        l[idx + k, idx] = off
    l[np.diag_indices(n)] = np.abs(l).sum(axis=1) + rng.uniform(0.5, 12.0, size=n)
    w = np.linalg.eigvalsh(l)
    l *= top / w[-1]
    w, v = np.linalg.eigh(l)
    return l, w, v


def band_edges(n, width):
    return {(i, j) for i in range(1, n + 1) for j in range(i + 1, min(n, i + width) + 1)}


def disjoint_sets(rng, n, k):
    """k disjoint sets over 1..n, each element in one of them or in none.

    Redrawn until the first two are non-empty, as the test suite's
    random_disjoint_sets does.
    """
    while True:
        assign = rng.integers(0, k + 1, size=n).tolist()
        sets = [[v + 1 for v in range(n) if assign[v] == g] for g in range(k)]
        if sets[0] and sets[1]:
            return sets


def partition(rng, pool, sizes):
    """Disjoint random subsets of the labels in pool with the given sizes, each sorted."""
    perm = [int(v) for v in rng.permutation(list(pool))]
    out, pos = [], 0
    for s in sizes:
        out.append(sorted(perm[pos:pos + s]))
        pos += s
    return out


def adjacency(n, edges):
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def components_without(adj, removed):
    """Connected components of the graph with the `removed` vertices deleted."""
    left = set(adj) - set(removed)
    comps = []
    while left:
        root = min(left)
        comp, queue = {root}, deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w in left and w not in comp:
                    comp.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
        left -= comp
    return comps


def separated(adj, a, b, c) -> bool:
    """True when every path from a to b passes through c (the benchmark's own BFS)."""
    blocked, targets = set(c), set(b)
    seen, queue = set(a), deque(a)
    while queue:
        for w in adj[queue.popleft()]:
            if w in targets:
                return False
            if w not in blocked and w not in seen:
                seen.add(w)
                queue.append(w)
    return True
