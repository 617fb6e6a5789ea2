"""Reference computations and comparisons used to check dppci's outputs.

References are computed with numpy directly from the generated matrices,
by formulas other than the library's where one exists, so a wrong answer
in the library does not reappear in its reference.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_TOL = 1e-9          # dppci's default relative zero tolerance
REL_TOL = 1e-8           # allowed relative error of a probability
MATRIX_TOL = 1e-9        # allowed max|M - M_ref| relative to max|M_ref|
TABLE_TOL = 1e-10        # allowed |sum(table) - 1| and |p - p_ref|
SUBNORMAL_SPACING = 5e-324


def idx0(labels) -> np.ndarray:
    return np.asarray(labels, dtype=np.intp) - 1


def logdet(m: np.ndarray) -> float:
    """log det of a matrix whose determinant must be positive; -inf otherwise."""
    if m.size == 0:
        return 0.0
    sign, value = np.linalg.slogdet(m)
    return float(value) if sign > 0 else -math.inf


def log_inclusion(k: np.ndarray, a) -> float:
    """log Pr(A ⊆ Y) = log det K_A."""
    i = idx0(a)
    return logdet(k[np.ix_(i, i)])


def log_mixed(k: np.ndarray, a, b) -> float:
    """log Pr(A ⊆ Y, B ∩ Y = ∅) = log det K_A + log det(I - (K / K_A)_B)."""
    ia, ib = idx0(a), idx0(b)
    k_b = k[np.ix_(ib, ib)]
    if len(ia):
        k_ba = k[np.ix_(ib, ia)]
        k_b = k_b - k_ba @ np.linalg.solve(k[np.ix_(ia, ia)], k_ba.T)
    return log_inclusion(k, a) + logdet(np.eye(len(ib)) - k_b)


def log_exact(l: np.ndarray, log_norm: float, a) -> float:
    """log Pr(Y = A) = log det L_A - log det(L + I); log_norm is the second term."""
    i = idx0(a)
    return logdet(l[np.ix_(i, i)]) - log_norm


def probability_ok(p, log_ref: float) -> bool:
    """A returned probability matches a log-domain reference.

    The reference is rounded to the nearest double first, so 0.0 passes only
    where the true value lies below the double range, and a subnormal result
    may be off by the subnormal spacing. NaN, infinities and values outside
    [0, 1] never match.
    """
    if not isinstance(p, float) or not 0.0 <= p <= 1.0:
        return False
    expected = math.exp(log_ref)
    return abs(p - expected) <= REL_TOL * expected + 2 * SUBNORMAL_SPACING


def conditional_kernel_ref(k: np.ndarray, include, exclude):
    """Marginal kernel given include ⊆ Y and exclude ∩ Y = ∅, with its labels.

    Exclusion: K_R + K_RD (I - K_D)^{-1} K_DR on the rest R; inclusion: the
    Schur complement of the result on the included positions.
    """
    out = set(exclude)
    labels = [v for v in range(1, k.shape[0] + 1) if v not in out]
    r = idx0(labels)
    m = k[r][:, r]
    if out:
        d = idx0(sorted(out))
        k_rd = k[r][:, d]
        m = m + k_rd @ np.linalg.solve(np.eye(len(d)) - k[d][:, d], k_rd.T)
    if include:
        inside = set(include)
        c = [j for j, v in enumerate(labels) if v in inside]
        s = [j for j, v in enumerate(labels) if v not in inside]
        m_sc = m[s][:, c]
        m = m[s][:, s] - m_sc @ np.linalg.solve(m[c][:, c], m_sc.T)
        labels = [v for v in labels if v not in inside]
    return (m + m.T) / 2.0, labels


def cross_block(m: np.ndarray, labels, x, y) -> np.ndarray:
    """The block of m with rows for labels x and columns for labels y."""
    pos = {v: j for j, v in enumerate(labels)}
    return m[[pos[v] for v in x]][:, [pos[v] for v in y]]


def block_independent(m: np.ndarray, labels, parts) -> bool:
    """Zero-block verdict: every cross block between parts is within ZERO_TOL * max|m|."""
    tol = ZERO_TOL * float(np.abs(m).max())
    return all(
        float(np.abs(cross_block(m, labels, parts[x], parts[y])).max()) <= tol
        for x in range(len(parts)) for y in range(x + 1, len(parts))
        if parts[x] and parts[y]
    )


def verdict_ref(k: np.ndarray, parts, include=(), exclude=()) -> bool:
    """Independence of the restrictions to `parts` under the conditioned law."""
    m, labels = conditional_kernel_ref(k, include, exclude)
    return block_independent(m, labels, parts)


def matrix_close(m: np.ndarray, ref: np.ndarray, tol: float = MATRIX_TOL) -> bool:
    return m.shape == ref.shape and float(np.max(np.abs(m - ref))) <= tol * float(np.max(np.abs(ref)))


def table_sums_to_one(probs: np.ndarray) -> bool:
    return abs(math.fsum(probs) - 1.0) <= TABLE_TOL


def mask_members(mask: int, n: int) -> list:
    return [v + 1 for v in range(n) if mask >> v & 1]
