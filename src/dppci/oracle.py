"""Exhaustive ground-truth oracle over all 2^n outcomes.

``JointTable.probs`` is indexed by bitmask: bit i-1 carries element i, so
mask 0 is the empty set and mask 2^n - 1 the full ground set. The table is
built by the chain rule on K, conditioning one element at a time; it reads
the kernel and nothing else of the library, so it stays an independent
reference for the determinant and Schur-complement paths. Queries read
the same array, without a copy, as an n-axis 2×…×2 view in which axis i-1
is element i's indicator: an event is a slice of that view and a marginal
is a sum over axes. Everything here is O(2^n) by design and capped at
n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConditioningEventNegligibleError,
    GroundSetTooLargeError,
    NumericalFailureError,
)
from .kernels import Event, IndexSet, IndexSetLike, _check_tolerance, _query_sets
from .probability import DppModel

MAX_ORACLE_N = 20
CONDITIONING_FLOOR = 1e-12
ORACLE_TOL = 1e-9
# Levels each top-level branch of build_table finishes on its own.
_FINISH_LEVELS = 14
# The sure event, the conditioning of a query given no event.
_NO_EVENT = Event()
# An element's axis of the 2×…×2 view cut to "in" and to "out".
_IN, _OUT = slice(1, 2), slice(0, 1)


@dataclass(frozen=True, eq=False)
class JointTable:
    """The full outcome distribution: probs[mask] = Pr(Y = subset(mask))."""

    n: int
    probs: np.ndarray

    @cached_property
    def _view(self) -> np.ndarray:
        """probs without a copy as the n-axis 2×…×2 array whose axis i-1 is element i."""
        return self.probs.reshape((2,) * self.n).T

    def prob_of(self, a: IndexSetLike) -> float:
        """Point probability Pr(Y = A)."""
        (aset,) = _query_sets(self.n, a=a)
        return float(self.probs[aset.mask])


def build_table(model: DppModel) -> JointTable:
    """Enumerate Pr(Y = A) for every subset A by the chain rule on K.

    Conditions K on one element at a time, highest first, as exact DPP
    samplers do (Kulesza & Taskar 2012, Alg. 1). A branch with kernel K,
    last element pivot p = K_mm and column k = K_{R,m} splits in two:

        out: weight 1 - p, kernel K_R + k kᵀ / (1 - p)
        in:  weight p,     kernel K_R - k kᵀ / p

    Branch 2b is b's out-branch and 2b + 1 its in-branch, so the leaves come
    out in bitmask order; about 6·2^n multiply-adds in all. The table shares
    no code with the kernel-level determinants and Schur steps it checks.

    n is capped at MAX_ORACLE_N, and the result sums to 1 within 1e-10 or the
    build is rejected outright.
    """
    n = model.n
    if n > MAX_ORACLE_N:
        raise GroundSetTooLargeError(
            f"exhaustive enumeration over 2^{n} outcomes exceeds the cap n <= {MAX_ORACLE_N}"
        )
    kernels = model.marginal.array[None]
    weights = np.ones(1)
    for _ in range(n - _FINISH_LEVELS):
        kernels, weights = _split(kernels, weights)
    probs = np.empty(1 << n, dtype=float)
    # Each top-level branch finishes alone, straight into its block of probs,
    # so the stack never holds more than 2^_FINISH_LEVELS small kernels.
    leaves = 1 << kernels.shape[1]
    for b in range(len(kernels)):
        ks, ws = kernels[b : b + 1], weights[b : b + 1]
        while ks.shape[1]:
            ks, ws = _split(ks, ws)
        probs[b * leaves : (b + 1) * leaves] = ws
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


def _split(kernels: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition every branch of a (branches, m, m) stack on its last element.

    A pivot of 0 (in) or 1 (out) gives that branch weight 0; its kernel is
    then left unconditioned rather than divided by zero.
    """
    m = kernels.shape[1] - 1
    p = kernels[:, m, m]
    q = 1.0 - p
    col = kernels[:, :m, m]
    outer = col[:, :, None] * col[:, None, :]
    nxt = np.zeros((2 * len(kernels), m, m))
    np.divide(outer, q[:, None, None], out=nxt[0::2], where=(q > 0.0)[:, None, None])
    np.divide(outer, -p[:, None, None], out=nxt[1::2], where=(p > 0.0)[:, None, None])
    rest = kernels[:, :m, :m]
    nxt[0::2] += rest
    nxt[1::2] += rest
    return nxt, np.stack((weights * q, weights * p), axis=1).ravel()


def event_prob(table: JointTable, event: Event) -> float:
    """Pr(include ⊆ Y, exclude ∩ Y = ∅) by direct summation."""
    _query_sets(table.n, include=event.include, exclude=event.exclude)
    return float(_event_slice(table, event).sum())


def _event_slice(table: JointTable, event: Event) -> np.ndarray:
    """The outcomes where the event holds, as a slice of the 2×…×2 view that
    keeps every axis: included axes are cut to 1, excluded axes to 0."""
    index = [slice(None)] * table.n
    for i in event.include.members:
        index[i - 1] = _IN
    for i in event.exclude.members:
        index[i - 1] = _OUT
    return table._view[tuple(index)]


def _axes(mask: int) -> tuple[int, ...]:
    """The view's axes of a mask's elements: its set bits' positions, ascending."""
    axes = []
    while mask:
        low = mask & -mask
        axes.append(low.bit_length() - 1)
        mask ^= low
    return tuple(axes)


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
    the two-part case of :func:`multiway_independence`, at its default tol."""
    return multiway_independence(table, [a, b], given)


def multiway_independence(
    table: JointTable,
    parts: Sequence[IndexSetLike],
    given: Optional[Event] = None,
    tol: float = ORACLE_TOL,
) -> OracleVerdict:
    """Mutual independence of the restrictions to each part, conditioned.

    Sums the conditioned slice of the table down to the parts' axes to get
    the exact joint distribution of the restrictions, sums that down to each
    part's axes to get its marginal, and compares the joint entrywise with the
    broadcast product of the marginals. An empty part is a constant
    restriction, independent of everything, so it is dropped first. The
    conditioning event must have probability above CONDITIONING_FLOOR.

    The sums and the maximum call the ufuncs' reduce, the very reduction
    ``ndarray.sum``/``max`` run, without their Python wrappers.
    """
    _check_tolerance("tol", tol)
    ev = given if given is not None else _NO_EVENT
    named = {f"part{k}": p for k, p in enumerate(parts, 1)}
    *psets, _, _ = _query_sets(table.n, **named, given_in=ev.include, given_out=ev.exclude)
    conditioned = _event_slice(table, ev)
    z = float(np.add.reduce(conditioned, axis=None))
    if z <= CONDITIONING_FLOOR:
        raise ConditioningEventNegligibleError(
            f"conditioning event has probability {z!r} <= floor {CONDITIONING_FLOOR!r}"
        )
    masks = [p.mask for p in psets if p]
    if len(masks) <= 1:
        return OracleVerdict(True, 0.0)
    union = sum(masks)  # the parts are disjoint
    rest = _axes(((1 << table.n) - 1) ^ union)
    joint = np.add.reduce(conditioned, axis=rest, keepdims=True) / z
    product = None
    for own in masks:  # ((m1 · m2) · m3) · ...: this order fixes the residual's bits
        marginal = np.add.reduce(joint, axis=_axes(union ^ own), keepdims=True)
        product = marginal if product is None else product * marginal
    gap = joint - product
    residual = float(np.maximum.reduce(np.abs(gap, out=gap), axis=None))
    return OracleVerdict(residual <= tol, residual)


def sample_many(table: JointTable, count: int, seed: Optional[int] = None) -> list:
    """Draw count independent subsets from the table by inverse CDF."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(table.probs)
    us = rng.random(count)
    picks = np.minimum(np.searchsorted(cdf, us, side="right"), len(cdf) - 1)
    return [IndexSet._of_mask(mask) for mask in picks.tolist()]
