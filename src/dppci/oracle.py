"""Exhaustive ground-truth oracle over all 2^n outcomes.

Subsets are bitmasks: bit i-1 carries element i, so mask 0 is the empty set
and mask 2^n - 1 the full ground set. Everything here is O(2^n) by design
and capped at n = 20.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ConditioningEventNegligibleError,
    GroundSetTooLargeError,
    NumericalFailureError,
)
from .kernels import Event, IndexSet, IndexSetLike, as_index_set, check_disjoint
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
    inc = event.include.mask
    exc = event.exclude.mask
    masks = table.masks
    ok = (masks & inc) == inc
    if exc:
        ok &= (masks & exc) == 0
    return float(table.probs[ok].sum())


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
    given.check_within(table.n)
    masks = table.masks
    inc, exc = given.include.mask, given.exclude.mask
    ok = np.ones(masks.shape, dtype=bool)
    if inc:
        ok &= (masks & inc) == inc
    if exc:
        ok &= (masks & exc) == 0
    weights = table.probs[ok]
    z = float(weights.sum())
    if z <= floor:
        raise ConditioningEventNegligibleError(
            f"conditioning event has probability {z!r} <= floor {floor!r}"
        )
    return masks[ok], weights / z


def process_independence(
    table: JointTable,
    a: IndexSetLike,
    b: IndexSetLike,
    given: Optional[Event] = None,
    tol: float = ORACLE_TOL,
    floor: float = CONDITIONING_FLOOR,
) -> OracleVerdict:
    """Test whether Y ∩ A and Y ∩ B are independent under the conditioned law.

    Builds the exact joint distribution of the two restrictions and compares
    it entrywise with the product of its marginals.
    """
    aset, bset = as_index_set(a), as_index_set(b)
    ev = given if given is not None else Event()
    check_disjoint(a=aset, b=bset, given_in=ev.include, given_out=ev.exclude)
    aset.check_within(table.n, "a")
    bset.check_within(table.n, "b")
    masks, weights = _conditioned(table, ev, floor)
    if not aset or not bset:  # a constant restriction: exactly independent
        return OracleVerdict(True, 0.0)
    ia = _extract_bits(masks, aset.members)
    ib = _extract_bits(masks, bset.members)
    joint = np.zeros((1 << len(aset), 1 << len(bset)))
    np.add.at(joint, (ia, ib), weights)
    ma = joint.sum(axis=1)
    mb = joint.sum(axis=0)
    residual = float(np.max(np.abs(joint - np.outer(ma, mb))))
    return OracleVerdict(residual <= tol, residual)


def multiway_independence(
    table: JointTable,
    parts: Sequence[IndexSetLike],
    given: Optional[Event] = None,
    tol: float = ORACLE_TOL,
    floor: float = CONDITIONING_FLOOR,
) -> OracleVerdict:
    """Mutual independence of the restrictions to each part, conditioned."""
    psets = [as_index_set(p) for p in parts]
    ev = given if given is not None else Event()
    named = {f"part{k + 1}": p for k, p in enumerate(psets)}
    check_disjoint(given_in=ev.include, given_out=ev.exclude, **named)
    for name, p in named.items():
        p.check_within(table.n, name)
    masks, weights = _conditioned(table, ev, floor)
    if not psets:
        return OracleVerdict(True, 0.0)
    shape = tuple(1 << len(p) for p in psets)
    coords = tuple(_extract_bits(masks, p.members) for p in psets)
    joint = np.zeros(shape)
    np.add.at(joint, coords, weights)
    axes = list(range(len(psets)))
    marginals = []
    for k in range(len(psets)):
        other = tuple(ax for ax in axes if ax != k)
        marginals.append(joint.sum(axis=other) if other else joint)
    product = reduce(np.multiply.outer, marginals)
    residual = float(np.max(np.abs(joint - product)))
    return OracleVerdict(residual <= tol, residual)


def event_independence(
    table: JointTable,
    first: Event,
    second: Event,
    tol: float = ORACLE_TOL,
) -> OracleVerdict:
    """Whether Pr(first ∧ second) = Pr(first) Pr(second). Events must not share
    elements; the conjunction is then itself a valid event."""
    check_disjoint(
        first_include=first.include,
        first_exclude=first.exclude,
        second_include=second.include,
        second_exclude=second.exclude,
    )
    both = Event(
        include=first.include.union(second.include),
        exclude=first.exclude.union(second.exclude),
    )
    p_both = event_prob(table, both)
    p_first = event_prob(table, first)
    p_second = event_prob(table, second)
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
