"""Exhaustive ground-truth oracle over all 2^n outcomes.

``JointTable.probs`` is indexed by bitmask: bit i-1 carries element i, so
mask 0 is the empty set and mask 2^n - 1 the full ground set. The table is
built by the chain rule on K, conditioning one element at a time, on a stack
of packed lower triangles with the branch axis last, in elementwise NumPy
with no BLAS call. A stack whose next level would outgrow a fixed entry
budget is halved by branches, and each half fills its own block of the
table, so the working memory stays small next to the table. The build
reads the kernel and nothing else of the library, so it stays an
independent reference for the determinant and Schur-complement paths, and
its bits depend only on K's. Queries read the same array, without a copy,
as a 2×…×2 view in which axis i - 1 is element i's indicator. An event
indexes its fixed axes away, 1 for an included element and 0 for an
excluded one, which leaves one axis per free element, ascending; a
marginal is a sum over some of those axes, found by each element's
position within a mask. Everything here is O(2^n) by design and capped at
n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConditioningEventNegligibleError,
    DppError,
    GroundSetTooLargeError,
    NumericalFailureError,
)
from .kernels import Event, IndexSet, IndexSetLike, _positions, _query_masks
from .probability import DppModel

MAX_ORACLE_N = 20
CONDITIONING_FLOOR = 1e-12
ORACLE_TOL = 1e-9
# Packed entries one level of build_table's stack may hold: a stack whose
# children would hold more is halved by branches, and each half fills its
# own block of the table. 12,288 is 6 rows by 2^11 branches, or 3 by 2^12,
# so at n <= 14 no stack is halved. Beyond the 2^n table the build then
# needs about 340 / 500 / 670 / 1,160 KB at n = 14 / 16 / 18 / 20 (traced).
_STACK_ENTRIES = 12_288
# Entries each per-mask memo of the queries keeps (an event's index, a
# mask's axis positions): far more than the distinct masks of a workload of
# small models, and a bound on what a stream of large ones can hold.
_MASK_MEMO = 1 << 16


@dataclass(frozen=True, eq=False)
class JointTable:
    """The full outcome distribution: probs[mask] = Pr(Y = subset(mask))."""

    n: int
    probs: np.ndarray

    @cached_property
    def _cube(self) -> np.ndarray:
        """probs without a copy as the 2×…×2 array whose axis i - 1 is element i."""
        return self.probs.reshape((2,) * self.n).T

    def prob_of(self, a: IndexSetLike) -> float:
        """Point probability Pr(Y = A)."""
        (mask,) = _query_masks(self.n, (a,), ("a",))
        return float(self.probs[mask])


def build_table(model: DppModel) -> JointTable:
    """Enumerate Pr(Y = A) for every subset A by the chain rule on K.

    Conditions K on one element at a time, highest first, as exact DPP
    samplers do (Kulesza & Taskar 2012, Alg. 1). A branch with kernel K,
    last element pivot p = K_mm and column k = K_{R,m} splits in two:

        out: weight 1 - p, kernel K_R + k kᵀ / (1 - p)
        in:  weight p,     kernel K_R - k kᵀ / p

    Branch 2b is b's out-branch and 2b + 1 its in-branch, so the leaves come
    out in bitmask order. A level is one (m(m+1)/2, branches) array: each
    branch's kernel as its packed lower triangle, with the branch axis last
    (see :func:`_split`), so every step is one elementwise pass along the
    branches and no upper triangle is formed. Over all levels that is about
    2·2^n products and 4·2^n divides and adds, almost all of them in the
    deep levels, where the branches are many and their kernels small.

    All branches are split together, level by level, while the next level
    holds at most _STACK_ENTRIES packed entries, so the levels where the
    branches are few take one call for all of them. A stack whose children
    would hold more is halved by branches and each half is finished in turn:
    branch b of a stack of B fills the b-th of B equal parts of the stack's
    block of probs. The table shares no code with the kernel-level
    determinants and Schur steps it checks, and it calls no BLAS, so its
    bits depend only on K's.

    n is capped at MAX_ORACLE_N, and the result sums to 1 within 1e-10 or the
    build is rejected outright.
    """
    n = model.n
    if n > MAX_ORACLE_N:
        raise GroundSetTooLargeError(
            f"exhaustive enumeration over 2^{n} outcomes exceeds the cap n <= {MAX_ORACLE_N}"
        )
    rows, cols = _tril(n)
    probs = np.empty(1 << n, dtype=float)
    pending = [(probs, model.marginal.array[rows, cols][:, None], np.ones(1))]
    while pending:
        block, kernels, weights = pending.pop()
        while len(kernels):
            t = len(kernels) - int(rows[len(kernels) - 1]) - 1  # rows of each child
            if len(weights) > 1 and 2 * len(weights) * t > _STACK_ENTRIES:
                half, cut = len(weights) // 2, len(block) // 2
                pending.append((block[cut:], kernels[:, half:], weights[half:]))
                block, kernels, weights = block[:cut], kernels[:, :half], weights[:half]
            else:
                kernels, weights = _split(kernels, weights, rows, cols)
        block[:] = weights
    bad = probs < 0.0
    if np.any(bad):
        worst = float(probs[bad].min())
        if worst < -1e-12:
            raise NumericalFailureError(f"subset probability {worst!r} below zero")
        probs[bad] = 0.0
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-10:
        raise NumericalFailureError(f"joint table sums to {total!r}, not 1")
    return JointTable(n=n, probs=probs)


@lru_cache(maxsize=MAX_ORACLE_N + 1)
def _tril(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.tril_indices(n), read-only and kept per n (at most MAX_ORACLE_N + 1
    pairs): row r of the packed triangle is entry (rows[r], cols[r]), and a
    prefix of these arrays indexes every smaller triangle."""
    rows, cols = np.tril_indices(n)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _split(
    kernels: np.ndarray, weights: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Condition every branch of a packed stack on its last element.

    kernels is (T(m + 1), branches), T(m) = m(m+1)/2: column b is branch b's
    kernel on m + 1 elements as its lower triangle row by row, entry (i, j),
    j <= i, at row i(i+1)/2 + j, as (rows, cols) list them. So the first T(m)
    rows are the kernel on the first m elements, the next m the column
    K_{R,m}, and the last the pivot K_mm. The children come back the same
    way, (T(m), 2·branches), with b's out-branch at 2b and its in-branch at
    2b + 1. A pivot of 0 (in) or 1 (out) gives that branch weight 0; its
    kernel is then left unconditioned rather than divided by zero.
    """
    m = int(rows[len(kernels) - 1])  # the last entry is the pivot (m, m)
    t = len(kernels) - m - 1
    p = kernels[-1]
    q = 1.0 - p
    col = kernels[t:-1]
    outer = col[rows[:t]] * col[cols[:t]]
    # min p·q > 0 only when every pivot is inside (0, 1), since p < 0 makes
    # q > 1; then no branch needs a mask. An underflow to 0 or a NaN takes the
    # masked path, which gives the same bits wherever both pivots are inside.
    inside = np.minimum.reduce(p * q) > 0.0
    nxt = np.empty((t, len(p), 2)) if inside else np.zeros((t, len(p), 2))
    out, into = nxt[:, :, 0], nxt[:, :, 1]
    if inside:
        np.divide(outer, q, out=out)
        np.divide(outer, -p, out=into)
    else:
        np.divide(outer, q, out=out, where=q > 0.0)
        np.divide(outer, -p, out=into, where=p > 0.0)
    out += kernels[:t]
    into += kernels[:t]
    ws = np.empty((len(p), 2))
    np.multiply(weights, q, out=ws[:, 0])
    np.multiply(weights, p, out=ws[:, 1])
    return nxt.reshape(t, 2 * len(p)), ws.ravel()


def event_prob(table: JointTable, event: Event) -> float:
    """Pr(include ⊆ Y, exclude ∩ Y = ∅) by direct summation."""
    include, exclude = _query_masks(table.n, (event.include, event.exclude), ("include", "exclude"))
    return float(_event_slice(table, include, exclude).sum())


def _event_slice(table: JointTable, include: int, exclude: int) -> np.ndarray:
    """The outcomes where the masks' event holds, over the free elements
    only: the event's fixed axes of the cube are indexed away, so the slice
    has one axis per free element, in ascending order. With no free element
    it is the one outcome's probability."""
    return table._cube[_event_index(table.n, include, exclude)]


@lru_cache(maxsize=_MASK_MEMO)
def _event_index(n: int, include: int, exclude: int) -> tuple[int | slice, ...]:
    """The cube's index for an event: 1 on an included element's axis, 0 on
    an excluded one's and a full slice on every free one."""
    return tuple(
        1 if include >> k & 1 else 0 if exclude >> k & 1 else slice(None) for k in range(n)
    )


@lru_cache(maxsize=_MASK_MEMO)
def _within(rows: int, sub: int) -> tuple[int, ...]:
    """The position inside the mask rows of each element of sub ⊆ rows,
    ascending: the axes of sub's elements in an array with one axis per
    element of rows."""
    return tuple(_positions(rows, sub).tolist())


class OracleVerdict(NamedTuple):
    """Boolean factorization verdict plus the worst probability gap behind it."""

    independent: bool
    residual: float


def process_independence(
    table: JointTable,
    a: IndexSetLike,
    b: IndexSetLike,
    given: Optional[Event] = None,
) -> OracleVerdict:
    """Test whether Y ∩ A and Y ∩ B are independent under the conditioned law:
    the two-part case of :func:`multiway_independence`."""
    return multiway_independence(table, [a, b], given)


def multiway_independence(
    table: JointTable,
    parts: Sequence[IndexSetLike],
    given: Optional[Event] = None,
) -> OracleVerdict:
    """Mutual independence of the restrictions to each part, conditioned.

    Sums the conditioned slice of the table down to the parts' axes to get
    the exact joint distribution of the restrictions, sums that down to each
    part's axes to get its marginal, and compares the joint entrywise with the
    broadcast product of the marginals: independent when no entry differs by
    more than ORACLE_TOL. An empty part is a constant restriction, independent
    of everything, so it is dropped first. The conditioning event must have
    probability above CONDITIONING_FLOOR.

    The slice has one axis per free element and the joint one per element of
    the parts' union, so an element's axis is its position within that mask,
    kept per mask by ``_within``. The sums and the maximum call the ufuncs'
    reduce, the very reduction ``ndarray.sum``/``max`` run, without their
    Python wrappers.
    """
    event = (given.include, given.exclude) if given is not None else (None, None)
    *pmasks, include, exclude = _query_masks(table.n, [*parts, *event], ("given_in", "given_out"))
    conditioned = _event_slice(table, include, exclude)
    z = float(np.add.reduce(conditioned, axis=None))
    if z <= CONDITIONING_FLOOR:
        raise ConditioningEventNegligibleError(
            f"conditioning event has probability {z!r} <= floor {CONDITIONING_FLOOR!r}"
        )
    masks = [p for p in pmasks if p]
    if len(masks) <= 1:
        return OracleVerdict(True, 0.0)
    union = sum(masks)  # the parts are disjoint
    free = ((1 << table.n) - 1) ^ include ^ exclude
    joint = np.add.reduce(conditioned, axis=_within(free, free ^ union)) / z
    product = None
    for own in masks:  # ((m1 · m2) · m3) · ...: this order fixes the residual's bits
        marginal = np.add.reduce(joint, axis=_within(union, union ^ own), keepdims=True)
        product = marginal if product is None else product * marginal
    gap = joint - product
    residual = float(np.maximum.reduce(np.abs(gap, out=gap), axis=None))
    return OracleVerdict(residual <= ORACLE_TOL, residual)


def sample_many(table: JointTable, count: int, seed: Optional[int] = None) -> list:
    """Draw count independent subsets from the table by inverse CDF. count,
    and seed unless it is None, must be non-negative ints (Python or NumPy,
    not bool)."""
    for name, value in (("count", count), ("seed", 0 if seed is None else seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
            raise DppError(f"{name} must be a non-negative integer, not {value!r}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(table.probs)
    us = rng.random(count)
    picks = np.minimum(np.searchsorted(cdf, us, side="right"), len(cdf) - 1)
    return [IndexSet._of_mask(mask) for mask in picks.tolist()]
