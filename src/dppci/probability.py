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

from .errors import IndexOutOfRangeError, NumericalFailureError
from .kernels import (
    DEFAULT_EPS_SPEC,
    EMPTY_SET,
    EnsembleKernel,
    Event,
    IndexSet,
    IndexSetLike,
    MarginalKernel,
    MatrixLike,
    SymMatrix,
    _bordered,
    _compose,
    _condition,
    _positions,
    _query_sets,
    as_index_set,
    k_from_l,
    l_from_k,
    validate_ensemble,
    validate_marginal,
)

PROB_CLAMP_TOL = 1e-12


class DppModel:
    """A DPP over {1..n}, addressable through either kernel.

    Create with :meth:`from_marginal` or :meth:`from_ensemble`; the
    constructor only stores what they computed. The kernel supplied is stored
    as given; its one eigendecomposition validates it and yields the other
    kernel and K⁻¹, which read the (λ, V) both kernels carry.
    """

    def __init__(self, marginal: MarginalKernel, ensemble: EnsembleKernel):
        self._marginal, self._ensemble = marginal, ensemble

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
        return self._marginal.n

    @property
    def marginal(self) -> MarginalKernel:
        return self._marginal

    @property
    def ensemble(self) -> EnsembleKernel:
        return self._ensemble

    def _marginal_inverse(self) -> SymMatrix:
        """K⁻¹ = V diag(1/λ) Vᵀ."""
        return _compose(self._marginal.vecs, 1.0 / self._marginal.w)

    def __repr__(self) -> str:
        return f"DppModel(n={self.n})"


def _clamp_probability(p: float, tol: float = PROB_CLAMP_TOL) -> float:
    """Snap values within tol of [0, 1] onto the interval; reject worse ones, NaN and ±inf."""
    if not -tol <= p <= 1.0 + tol:  # false for NaN as well
        raise NumericalFailureError(
            f"computed probability {p!r} is not within tolerance {tol:.1e} of [0, 1]"
        )
    return min(max(p, 0.0), 1.0)


def _event_prob(model: DppModel, include: IndexSet, exclude: IndexSet) -> float:
    """(-1)^|exclude| times the LU determinant of the (indefinite) bordered block."""
    det = float(np.linalg.det(_bordered(model.marginal.array, include.union(exclude), exclude)))
    return _clamp_probability((-1.0) ** len(exclude) * det)


def inclusion_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(A ⊆ Y) = det(K_A). The empty set gives 1."""
    (aset,) = _query_sets(model.n, a=a)
    return _event_prob(model, aset, EMPTY_SET)


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

    ``labels[j]`` is the original 1-based element behind local row/column j.
    """

    kernel: MarginalKernel
    labels: tuple[int, ...]

    @property
    def array(self) -> np.ndarray:
        return self.kernel.array

    @property
    def n(self) -> int:
        return self.kernel.n

    def local_positions(self, a: IndexSetLike) -> np.ndarray:
        """0-based local positions of original indices a. All must be present."""
        aset = as_index_set(a)
        missing = [i for i in aset if i not in self.labels]
        if missing:
            raise IndexOutOfRangeError(f"elements {missing} are not in the conditional ground set")
        return _positions(IndexSet._trusted(self.labels), aset)

    def model(self) -> DppModel:
        """The conditional law as a DPP model on the reduced ground set."""
        # Checked at conditional_kernel's eps_spec already; 0 asks only for (0, 1).
        return DppModel.from_marginal(self.kernel, 0.0)


def conditional_kernel(
    model: DppModel, given: Event, eps_spec: float = DEFAULT_EPS_SPEC
) -> ConditionalKernel:
    """Kernel of Y restricted to the remaining elements, given a mixed event.

    One Schur step on the included and excluded elements together; either
    part of the event may be empty.
    """
    include, exclude = _query_sets(model.n, include=given.include, exclude=given.exclude)
    # An empty event leaves K, whose decomposition the model carries.
    s, rest, _ = _condition(model.marginal, include, exclude, eps_spec)
    return ConditionalKernel(validate_marginal(s, eps_spec), rest.members)


def conditional_kernel_given_included(
    model: DppModel, c: IndexSetLike, eps_spec: float = DEFAULT_EPS_SPEC
) -> ConditionalKernel:
    """Kernel of Y \\ C conditioned on C ⊆ Y: the Schur complement K / K_C."""
    return conditional_kernel(model, Event(include=c), eps_spec)


def conditional_kernel_given_excluded(
    model: DppModel, c: IndexSetLike, eps_spec: float = DEFAULT_EPS_SPEC
) -> ConditionalKernel:
    """Kernel of Y conditioned on C ∩ Y = ∅, namely I - (I - K) / (I - K)_C."""
    return conditional_kernel(model, Event(exclude=c), eps_spec)
