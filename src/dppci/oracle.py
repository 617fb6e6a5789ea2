"""Exhaustive ground-truth oracle over all 2^n outcomes.

Subsets are bitmasks: bit i-1 carries element i, so mask 0 is the empty set
and mask 2^n - 1 the full ground set. Everything here is O(2^n) by design
and capped at n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import prod
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConditioningEventNegligibleError,
    GroundSetTooLargeError,
    NumericalFailureError,
)
from .kernels import Event, IndexSet, IndexSetLike, _query_sets, as_index_set
from .probability import DppModel

MAX_ORACLE_N = 20
CONDITIONING_FLOOR = 1e-12
ORACLE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class JointTable:
    """The full outcome distribution: probs[mask] = Pr(Y = subset(mask))."""

    n: int
    probs: np.ndarray

    @cached_property
    def masks(self) -> np.ndarray:
        return np.arange(2 ** self.n, dtype=np.int64)

    def prob_of(self, a: IndexSetLike) -> float:
        """Point probability Pr(Y = A)."""
        aset = as_index_set(a)
        aset.check_within(self.n, "subset")
        return float(self.probs[aset.mask])


def build_table(model: DppModel, cap: int = MAX_ORACLE_N) -> JointTable:
    """Enumerate Pr(Y = A) = det(L_A) / det(L + I) for every subset A.

    The result sums to 1 within 1e-10 or the build is rejected outright.
    """
    n = model.n
    if n > cap:
        raise GroundSetTooLargeError(
            f"exhaustive enumeration over 2^{n} outcomes exceeds the cap n <= {cap}"
        )
    larr = model.ensemble.array
    denom = float(np.linalg.det(larr + np.eye(n)))
    size = 1 << n
    probs = np.empty(size, dtype=float)
    for mask in range(size):
        idx = [i for i in range(n) if (mask >> i) & 1]
        probs[mask] = np.linalg.det(larr[np.ix_(idx, idx)])
    probs /= denom
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


def event_prob(table: JointTable, event: Event) -> float:
    """Pr(include ⊆ Y, exclude ∩ Y = ∅) by direct summation."""
    event.check_within(table.n)
    return float(table.probs[_event_mask(table, event)].sum())


def _event_mask(table: JointTable, event: Event) -> np.ndarray:
    """Boolean filter over the table's outcomes: True where the event holds."""
    masks = table.masks
    inc, exc = event.include.mask, event.exclude.mask
    ok = (masks & inc) == inc
    if exc:
        ok &= (masks & exc) == 0
    return ok


class OracleVerdict(NamedTuple):
    """Boolean factorization verdict plus the worst probability gap behind it."""

    independent: bool
    residual: float


def _extract_bits(masks: np.ndarray, members: tuple[int, ...]) -> np.ndarray:
    """Pack the bits of the given 1-based members into local bit positions."""
    out = np.zeros(masks.shape, dtype=np.int64)
    for p, m in enumerate(members):
        out |= ((masks >> (m - 1)) & 1) << p
    return out


def _conditioned(table: JointTable, given: Event, floor: float):
    ok = _event_mask(table, given)
    weights = table.probs[ok]
    z = float(weights.sum())
    if z <= floor:
        raise ConditioningEventNegligibleError(
            f"conditioning event has probability {z!r} <= floor {floor!r}"
        )
    return table.masks[ok], weights / z


def process_independence(
    table: JointTable,
    a: IndexSetLike,
    b: IndexSetLike,
    given: Optional[Event] = None,
    tol: float = ORACLE_TOL,
    floor: float = CONDITIONING_FLOOR,
) -> OracleVerdict:
    """Test whether Y ∩ A and Y ∩ B are independent under the conditioned law:
    the two-part case of :func:`multiway_independence`."""
    return multiway_independence(table, [a, b], given, tol, floor)


def multiway_independence(
    table: JointTable,
    parts: Sequence[IndexSetLike],
    given: Optional[Event] = None,
    tol: float = ORACLE_TOL,
    floor: float = CONDITIONING_FLOOR,
) -> OracleVerdict:
    """Mutual independence of the restrictions to each part, conditioned.

    Builds the exact joint distribution of the restrictions and compares it
    entrywise with the product of its marginals. An empty part is a constant
    restriction, independent of everything, so it is dropped first.
    """
    ev = given if given is not None else Event()
    named = {f"part{k}": p for k, p in enumerate(parts, 1)}
    *psets, _, _ = _query_sets(table.n, **named, given_in=ev.include, given_out=ev.exclude)
    masks, weights = _conditioned(table, ev, floor)
    psets = [p for p in psets if p]
    if len(psets) <= 1:
        return OracleVerdict(True, 0.0)
    sizes = tuple(1 << len(p) for p in psets)
    coords = [_extract_bits(masks, p.members) for p in psets]
    joint = np.bincount(np.ravel_multi_index(coords, sizes), weights, prod(sizes))
    marginals = [np.bincount(x, weights, size) for x, size in zip(coords, sizes)]
    product = reduce(np.multiply.outer, marginals)
    residual = float(np.max(np.abs(joint.reshape(sizes) - product)))
    return OracleVerdict(residual <= tol, residual)


def event_independence(
    table: JointTable,
    first: Event,
    second: Event,
    tol: float = ORACLE_TOL,
) -> OracleVerdict:
    """Whether Pr(first ∧ second) = Pr(first) Pr(second). Events must not share
    elements; the conjunction is then itself a valid event."""
    _query_sets(
        table.n,
        first_include=first.include,
        first_exclude=first.exclude,
        second_include=second.include,
        second_exclude=second.exclude,
    )
    both = Event(
        include=first.include.union(second.include),
        exclude=first.exclude.union(second.exclude),
    )
    p_both, p_first, p_second = (
        float(table.probs[_event_mask(table, e)].sum()) for e in (both, first, second)
    )
    residual = abs(p_both - p_first * p_second)
    return OracleVerdict(residual <= tol, residual)


def sample(table: JointTable, seed: Optional[int] = None) -> IndexSet:
    """Draw one subset from the table by inverse CDF."""
    return sample_many(table, 1, seed)[0]


def sample_many(table: JointTable, count: int, seed: Optional[int] = None) -> list:
    """Draw count independent subsets from the table."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(table.probs)
    us = rng.random(count)
    picks = np.minimum(np.searchsorted(cdf, us, side="right"), len(cdf) - 1)
    out = []
    for mask in picks:
        out.append(IndexSet(i + 1 for i in range(table.n) if (int(mask) >> i) & 1))
    return out
