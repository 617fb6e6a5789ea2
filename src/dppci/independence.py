"""Conditional-independence tests for DPPs via zero blocks of derived kernels.

Each check reports the largest block entry that would have to vanish, the
scaled tolerance it was compared against, and the resulting boolean, so a
caller can always see how close the call was.

Each check composes only the entries it reads: the tested block and, for
the scale of the tolerance, the largest entry of a positive semidefinite
matrix, which is its largest diagonal entry. A conditional check reads both
from the one factored Schur step (``kernels._condition``), never the whole
conditional kernel; the pairwise check given the rest included reads
K^{-1}'s entries from the spectrum K carries, never K^{-1} itself.

Conventions: Y_A ⊥ Y_B means the restricted processes Y ∩ A and Y ∩ B are
independent. Empty A or B makes every query trivially independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    DEFAULT_ZERO_TOL,
    Event,
    IndexSet,
    IndexSetLike,
    _checked_sets,
    _condition,
    _indices0,
    _query_masks,
    _zero_threshold,
)
from .probability import DppModel, inclusion_prob, mixed_prob


@dataclass(frozen=True)
class CiQuery:
    """Are Y_A and Y_B independent given the conditioning event?"""

    a: IndexSet
    b: IndexSet
    given: Event

    def __init__(
        self,
        a: IndexSetLike,
        b: IndexSetLike,
        given_in: IndexSetLike = None,
        given_out: IndexSetLike = None,
    ):
        a, b, given_in, given_out = _checked_sets(
            ("a", "b", "given_in", "given_out"), (a, b, given_in, given_out)
        )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "given", Event(given_in, given_out))


@dataclass(frozen=True)
class CiVerdict:
    """Outcome of a zero-block independence test.

    ``criterion_value`` is the largest absolute entry of the tested block;
    ``tolerance_used`` is the absolute threshold it was compared against.
    """

    independent: bool
    criterion_value: float
    criterion: str
    tolerance_used: float


def _block_verdict(
    blk: np.ndarray, scale: float, criterion: str, zero_tol: float
) -> CiVerdict:
    tol_abs = _zero_threshold(scale, zero_tol)
    value = float(np.max(np.abs(blk))) if blk.size else 0.0
    return CiVerdict(value <= tol_abs, value, criterion, tol_abs)


# Zero-block criterion by (conditions on inclusion, conditions on exclusion).
_CRITERIA = {
    (False, False): "max |K[A,B]|",
    (True, False): "max |(K/K_C)[A,B]|",
    (False, True): "max |(I - (I-K)/(I-K)_C)[A,B]|",
    (True, True): "max |K^(in|out)[A,B]|",
}


def check_marginal_independence(model: DppModel, a: IndexSetLike, b: IndexSetLike) -> CiVerdict:
    """Y_A ⊥ Y_B  iff  K_{A,B} = 0.

    The tolerance is relative to the largest entry of the whole kernel, not
    of the block, so a tiny block in a well-scaled kernel still reads zero.
    """
    return check_conditional_independence(model, CiQuery(a, b))


def check_ci_given_inclusion(
    model: DppModel, a: IndexSetLike, b: IndexSetLike, c: IndexSetLike
) -> CiVerdict:
    """Y_A ⊥ Y_B given C ⊆ Y  iff  the conditional kernel block (K/K_C)_{A,B} = 0."""
    return check_conditional_independence(model, CiQuery(a, b, given_in=c))


def check_conditional_independence(
    model: DppModel, query: CiQuery, zero_tol: float = DEFAULT_ZERO_TOL
) -> CiVerdict:
    """Test a CiQuery on the zero block of its conditional kernel: the general
    form of the two shortcuts above, which keep the default zero_tol.

    With no conditioning that kernel is K itself; given C ⊆ Y it is K/K_C,
    given C ∩ Y = ∅ it is I - (I-K)/(I-K)_C, and either, or both mixed, is
    one Schur step of the event's bordered matrix. Only its (A, B) block and
    its diagonal are composed; the tolerance is zero_tol times its largest
    entry, which is on the diagonal.
    """
    given = query.given
    sets = (query.a, query.b, given.include, given.exclude)
    a, b, include, exclude = _query_masks(model.n, sets, ("a", "b", "given_in", "given_out"))
    step = _condition(model.marginal.matrix, include, exclude)
    diagonal = step.diagonal()  # the kernel is PSD: its largest entry is on its diagonal
    scale = float(diagonal.max()) if diagonal.size else 0.0
    # An empty A or B takes a block with no entries, which reads as 0.
    criterion = _CRITERIA[bool(include), bool(exclude)] if a and b else "trivial: empty query set"
    return _block_verdict(step.block(a, b), scale, criterion, zero_tol)


def check_pairwise_given_rest_included(model: DppModel, i: int, j: int) -> CiVerdict:
    """Y_i ⊥ Y_j given (everything else) ⊆ Y  iff  (K^{-1})_{ij} = 0.

    K^{-1} = V diag(1/λ) V^T is read from the spectrum K carries, not
    composed: the tested entries, and its largest entry, which is on its
    diagonal (K^{-1} is positive definite), max_i Σ_k V_ik² / λ_k.
    """
    imask, jmask = _query_masks(model.n, (i, j), ("i", "j"))
    inv_w, vecs = 1.0 / model.marginal.w, model.marginal.vecs
    blk = (vecs.take(_indices0(imask), 0) * inv_w) @ vecs.take(_indices0(jmask), 0).T
    scale = float(np.einsum("ij,ij,j->i", vecs, vecs, inv_w).max()) if vecs.size else 0.0
    return _block_verdict(blk, scale, "|inv(K)[i,j]|", DEFAULT_ZERO_TOL)


def check_pairwise_given_rest_excluded(model: DppModel, i: int, j: int) -> CiVerdict:
    """Y_i ⊥ Y_j given (everything else) ∩ Y = ∅  iff  L_{ij} = 0, relative
    to the largest entry of L."""
    ell = model.ensemble.matrix
    imask, jmask = _query_masks(ell.n, (i, j), ("i", "j"))
    blk = ell.array.take(_indices0(imask), 0).take(_indices0(jmask), 1)
    return _block_verdict(blk, ell.max_abs(), "|L[i,j]|", DEFAULT_ZERO_TOL)


_DEMO_KERNEL = [
    [0.05, 0.00, 0.10],
    [0.00, 0.80, 0.20],
    [0.10, 0.20, 0.60],
]


@dataclass(frozen=True)
class CounterexampleReport:
    """A 3-element model where two events factor while the kernel block does not.

    The events are (1 ∈ Y, 2 ∉ Y) and (3 ∈ Y). Their joint probability equals
    the product of their probabilities, yet K_{{1,2},{3}} has entries of size
    0.1 and 0.2, so independence of single events does not force a zero block
    (only independence of the restricted processes does).
    """

    kernel: tuple[tuple[float, ...], ...]
    joint_prob: float
    left_prob: float
    right_prob: float
    factorization_residual: float
    events_factor: bool
    block_max_abs: float
    processes_verdict: CiVerdict
    oracle_residual: float

    @property
    def passed(self) -> bool:
        return (
            self.events_factor
            and self.block_max_abs > 1e-3
            and not self.processes_verdict.independent
            and self.oracle_residual > 1e-9
        )

    def as_dict(self) -> dict:
        return {
            "kernel": [list(row) for row in self.kernel],
            "events": {
                "left": {"include": [1], "exclude": [2]},
                "right": {"include": [3], "exclude": []},
            },
            "joint_prob": self.joint_prob,
            "left_prob": self.left_prob,
            "right_prob": self.right_prob,
            "factorization_residual": self.factorization_residual,
            "events_factor": self.events_factor,
            "block_max_abs": self.block_max_abs,
            "processes_independent": self.processes_verdict.independent,
            "processes_criterion_value": self.processes_verdict.criterion_value,
            "oracle_residual": self.oracle_residual,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        k = self.kernel
        lines = [
            "Event independence does not imply process independence.",
            "",
            "Kernel K (3 elements):",
        ]
        lines += ["    " + "  ".join(f"{v:5.2f}" for v in row) for row in k]
        lines += [
            "",
            f"Pr(1 in Y, 2 not in Y, 3 in Y) = {self.joint_prob:.6f}",
            f"Pr(1 in Y, 2 not in Y)        = {self.left_prob:.6f}",
            f"Pr(3 in Y)                    = {self.right_prob:.6f}",
            f"product                       = {self.left_prob * self.right_prob:.6f}",
            f"factorization residual        = {self.factorization_residual:.3e}"
            f"  (events {'factor' if self.events_factor else 'do not factor'})",
            "",
            f"max |K[{{1,2}},{{3}}]| = {self.block_max_abs:.3f}, so the zero-block test",
            f"declares the processes dependent"
            f" (criterion value {self.processes_verdict.criterion_value:.3f}"
            f" > tolerance {self.processes_verdict.tolerance_used:.2e}).",
            f"Exhaustive check agrees: max factorization gap over subset pairs"
            f" = {self.oracle_residual:.3e}.",
            "",
            "PASS" if self.passed else "FAIL",
        ]
        return "\n".join(lines)


def counterexample_demo() -> CounterexampleReport:
    """Build the stock 3-element counterexample and check every claim in it."""
    from .oracle import build_table, multiway_independence

    model = DppModel.from_marginal(_DEMO_KERNEL)
    left = Event(include=[1], exclude=[2])
    right = Event(include=[3])
    joint = mixed_prob(model, Event(include=[1, 3], exclude=[2]))
    p_left = mixed_prob(model, left)
    p_right = inclusion_prob(model, [3])
    residual = abs(joint - p_left * p_right)
    verdict = check_conditional_independence(model, CiQuery([1, 2], [3]))
    table = build_table(model)
    oracle = multiway_independence(table, [[1, 2], [3]])
    return CounterexampleReport(
        kernel=tuple(tuple(row) for row in _DEMO_KERNEL),
        joint_prob=joint,
        left_prob=p_left,
        right_prob=p_right,
        factorization_residual=residual,
        events_factor=residual <= 1e-12,
        block_max_abs=verdict.criterion_value,
        processes_verdict=verdict,
        oracle_residual=oracle.residual,
    )
