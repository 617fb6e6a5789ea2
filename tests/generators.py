"""Random and structured kernel generators shared across the test suite.

Positives ("independent by construction") come from block-diagonal kernels
and from matrices whose inverse carries an exact zero block; negatives come
from perturbing one entry of the zero block well past the decision
tolerance.
"""

import numpy as np

from dppci import DppModel, IndexSet


def indices0(s):
    """0-based positions into a stored array of the 1-based elements of s."""
    return np.array([i - 1 for i in s], dtype=np.intp)


def union(s, t):
    """The IndexSet of the elements of s and of t."""
    return IndexSet([*s, *t])


def complement(s, n):
    """The IndexSet of the elements of {1..n} outside s."""
    return IndexSet(set(range(1, n + 1)) - set(s))


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_marginal_matrix(rng, n, lo=0.08, hi=0.92):
    """Symmetric matrix with eigenvalues drawn uniformly from (lo, hi)."""
    q = random_orthogonal(rng, n)
    w = rng.uniform(lo, hi, size=n)
    return (q * w) @ q.T


def random_ensemble_matrix(rng, n, lo=0.15, hi=4.0):
    q = random_orthogonal(rng, n)
    w = rng.uniform(lo, hi, size=n)
    return (q * w) @ q.T


def random_model(rng, n):
    return DppModel.from_marginal(random_marginal_matrix(rng, n))


def random_disjoint_sets(rng, n, k, nonempty=()):
    """k disjoint IndexSets over {1..n}; groups listed in nonempty are retried
    until they actually hold an element. Elements may stay unassigned."""
    while True:
        assign = rng.integers(0, k + 1, size=n)
        groups = [IndexSet((np.where(assign == g)[0] + 1).tolist()) for g in range(k)]
        if all(groups[g] for g in nonempty):
            return groups


def _assemble_blocks(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    spans = []
    pos = 0
    for b in blocks:
        s = b.shape[0]
        out[pos:pos + s, pos:pos + s] = b
        spans.append(IndexSet(range(pos + 1, pos + s + 1)))
        pos += s
    return out, spans


def block_diag_marginal(rng, sizes):
    """Block-diagonal K and the 1-based index span of each block."""
    return _assemble_blocks([random_marginal_matrix(rng, s, 0.1, 0.9) for s in sizes])


def block_diag_ensemble(rng, sizes):
    return _assemble_blocks([random_ensemble_matrix(rng, s, 0.3, 3.0) for s in sizes])


def inverse_zero_block_matrix(rng, na, nb, nc, dlo=3.0, dhi=5.0, off=0.25):
    """PD matrix P with an exact zero block between the first na and next nb
    indices, diagonally dominant so the spectrum stays in a known band.

    Returns (P, A, B, C) with A = {1..na}, B follows, C is the remainder.
    Used as a precision matrix: inv(P) then has conditional-independence
    structure between A and B given C.
    """
    n = na + nb + nc
    p = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p[i, j] = p[j, i] = rng.uniform(-off, off)
    a = IndexSet(range(1, na + 1))
    b = IndexSet(range(na + 1, na + nb + 1))
    c = IndexSet(range(na + nb + 1, n + 1))
    p[np.ix_(indices0(a), indices0(b))] = 0.0
    p[np.ix_(indices0(b), indices0(a))] = 0.0
    p[np.diag_indices(n)] = rng.uniform(dlo, dhi, size=n)
    return p, a, b, c


def precision_structured_marginal(rng, na, nb, nc):
    """Marginal kernel K = P^{-1} with (K^{-1})_{AB} = 0 exactly.

    With C = everything outside A and B, the conditional kernel given
    C ⊆ Y then has an exact zero (A, B) block.
    """
    p, a, b, c = inverse_zero_block_matrix(rng, na, nb, nc)
    k = np.linalg.inv(p)
    return (k + k.T) / 2.0, a, b, c


def zero_block_ensemble(rng, na, nb, nc):
    """Ensemble kernel L with L_{AB} = 0 exactly (diagonally dominant)."""
    l, a, b, c = inverse_zero_block_matrix(rng, na, nb, nc, dlo=2.0, dhi=4.0, off=0.2)
    return l, a, b, c


def perturb_block(rng, matrix, a, b, magnitude):
    """Symmetrically bump one entry of the (A, B) block by the magnitude."""
    out = np.array(matrix, dtype=float)
    i = int(rng.choice(indices0(a)))
    j = int(rng.choice(indices0(b)))
    out[i, j] += magnitude
    out[j, i] = out[i, j]
    return out


def ensemble_from_edges(rng, n, edges, wlo=0.2, whi=0.45):
    """Strictly diagonally dominant L whose induced graph is exactly `edges`
    (1-based vertex pairs)."""
    l = np.zeros((n, n))
    for i, j in edges:
        w = rng.uniform(wlo, whi) * rng.choice([-1.0, 1.0])
        l[i - 1, j - 1] = l[j - 1, i - 1] = w
    l[np.diag_indices(n)] = np.abs(l).sum(axis=1) + rng.uniform(0.3, 1.0, size=n)
    return l


def chain_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def star_edges(n, center=1):
    return [(center, j) for j in range(1, n + 1) if j != center]


def random_tree_edges(rng, n):
    return [(int(rng.integers(1, i)), i) for i in range(2, n + 1)]


def block_clique_edges(sizes):
    edges = []
    pos = 1
    for s in sizes:
        verts = range(pos, pos + s)
        edges += [(i, j) for i in verts for j in verts if i < j]
        pos += s
    return edges


def non_necessity_witness():
    """Marginal kernel where Y_1 ⊥ Y_2 given 3 ∉ Y holds although {3} does
    not separate 1 and 2 in the graph of L.

    M = I - K carries M_12 = M_13 M_33^{-1} M_32 exactly, so the Schur
    complement of M on {3} has a zero (1,2) entry, while L keeps a direct
    1-2 edge.
    """
    m = np.array([
        [0.50, 0.03, 0.15, 0.10],
        [0.03, 0.50, 0.10, 0.12],
        [0.15, 0.10, 0.50, 0.05],
        [0.10, 0.12, 0.05, 0.50],
    ])
    assert abs(m[0, 1] - m[0, 2] * m[1, 2] / m[2, 2]) < 1e-15
    return np.eye(4) - m


def restrict_table_probs(table, s):
    """Distribution of Y ∩ S from a full JointTable, indexed by local masks."""
    s = IndexSet(s)
    masks = np.arange(2 ** table.n, dtype=np.int64)
    local = np.zeros(masks.shape, dtype=np.int64)
    for pos, member in enumerate(s.members):
        local |= ((masks >> (member - 1)) & 1) << pos
    out = np.zeros(2 ** len(s))
    np.add.at(out, local, table.probs)
    return out
