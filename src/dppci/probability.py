"""Event probabilities and conditional kernels of a DPP model.

A DppModel keeps the kernel it was given and the other one composed from its
eigendecomposition, which both carry; K⁻¹ is read from the same (λ, V).
An event A ⊆ Y, B ∩ Y = ∅ is one bordered block, K on A ∪ B minus 1 on B's
diagonal (``kernels._bordered``): ±its determinant is the event's
probability, and the conditional kernel is its one Schur step
(``kernels._condition``); nothing here reads det(L + I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .kernels import (
    DEFAULT_EPS_SPEC,
    _EMPTY_SET,
    EnsembleKernel,
    Event,
    IndexSet,
    IndexSetLike,
    MarginalKernel,
    MatrixLike,
    _bordered,
    _condition,
    _query_sets,
    k_from_l,
    l_from_k,
    validate_ensemble,
    validate_marginal,
)

PROB_CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class DppModel:
    """A DPP over {1..n}, addressable through either kernel.

    Create with :meth:`from_marginal` or :meth:`from_ensemble`; the
    constructor only stores what they computed. The kernel supplied is stored
    as given; its one eigendecomposition validates it and yields the other
    kernel and K⁻¹, which read the (λ, V) both kernels carry.
    """

    marginal: MarginalKernel
    ensemble: EnsembleKernel

    @classmethod
    def from_marginal(cls, k: MatrixLike, eps_spec: float = DEFAULT_EPS_SPEC) -> "DppModel":
        marginal = validate_marginal(k, eps_spec)
        return cls(marginal, l_from_k(marginal, eps_spec))

    @classmethod
    def from_ensemble(cls, l: MatrixLike, eps_spec: float = DEFAULT_EPS_SPEC) -> "DppModel":
        ensemble = validate_ensemble(l, eps_spec)
        return cls(k_from_l(ensemble, eps_spec), ensemble)

    @property
    def n(self) -> int:
        return self.marginal.n

    def __repr__(self) -> str:
        return f"DppModel(n={self.n})"


def _clamp_probability(p: float) -> float:
    """Snap values within PROB_CLAMP_TOL of [0, 1] onto the interval; reject
    worse ones, NaN and ±inf."""
    if not -PROB_CLAMP_TOL <= p <= 1.0 + PROB_CLAMP_TOL:  # false for NaN as well
        raise NumericalFailureError(
            f"computed probability {p!r} is not within tolerance {PROB_CLAMP_TOL:.1e} of [0, 1]"
        )
    return min(max(p, 0.0), 1.0)


def _event_prob(model: DppModel, include: IndexSet, exclude: IndexSet) -> float:
    """(-1)^|exclude| times the LU determinant of the (indefinite) bordered block."""
    det = float(np.linalg.det(_bordered(model.marginal.array, include.union(exclude), exclude)))
    return _clamp_probability((-1.0) ** len(exclude) * det)


def inclusion_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(A ⊆ Y) = det(K_A). The empty set gives 1."""
    (aset,) = _query_sets(model.n, a=a)
    return _event_prob(model, aset, _EMPTY_SET)


def exact_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(Y = A): the event that includes A and excludes the rest."""
    (aset,) = _query_sets(model.n, a=a)
    return _event_prob(model, aset, aset.complement(model.n))


def mixed_prob(model: DppModel, event: Event) -> float:
    """Pr(A ⊆ Y, B ∩ Y = ∅) for event (include=A, exclude=B).

    Computed as (-1)^|B| times the determinant of the bordered matrix

        [[ K_A,    K_{A,B}   ],
         [ K_{B,A}, K_B - I  ]]
    """
    include, exclude = _query_sets(model.n, include=event.include, exclude=event.exclude)
    return _event_prob(model, include, exclude)


@dataclass(frozen=True)
class ConditionalKernel:
    """A marginal kernel on a reduced ground set, with original labels.

    ``labels[j]`` is the original 1-based element behind local row/column j,
    so ``np.searchsorted(labels, a)`` are the local positions of a. The kernel
    carries its spectrum, checked at DEFAULT_EPS_SPEC, so its law as a model,
    ``DppModel.from_marginal(kernel)``, runs no eigh and never rejects.
    """

    kernel: MarginalKernel
    labels: tuple[int, ...]

    @property
    def array(self) -> np.ndarray:
        return self.kernel.array

    @property
    def n(self) -> int:
        return self.kernel.n


def conditional_kernel(model: DppModel, given: Event) -> ConditionalKernel:
    """Kernel of Y restricted to the remaining elements, given a mixed event:
    K/K_C for Event(include=C), I - (I - K)/(I - K)_C for Event(exclude=C).

    One Schur step on the included and excluded elements together; either
    part of the event may be empty. The step and the result are checked at
    DEFAULT_EPS_SPEC, whatever eps_spec the model was built at.
    """
    include, exclude = _query_sets(model.n, include=given.include, exclude=given.exclude)
    # An empty event leaves K, whose decomposition the model carries.
    s, rest, _ = _condition(model.marginal.matrix, include, exclude, DEFAULT_EPS_SPEC)
    return ConditionalKernel(validate_marginal(s), rest.members)
