"""Event probabilities and conditional kernels of a DPP model.

A DppModel keeps the kernel it was given and one eigendecomposition
K = V diag(λ) Vᵀ, from which the other kernel and K⁻¹ are read.
Probabilities of mixed events (A inside Y, B outside Y) come from one
bordered determinant, conditional kernels from Schur complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalFailureError
from .kernels import (
    DEFAULT_EPS_SPEC,
    EnsembleKernel,
    Event,
    IndexSet,
    IndexSetLike,
    MarginalKernel,
    MatrixLike,
    SymMatrix,
    _as_sym,
    _check_ensemble_spectrum,
    _check_marginal_spectrum,
    _compose,
    _eigh,
    _positions,
    as_index_set,
    schur_complement,
    validate_marginal,
)

PROB_CLAMP_TOL = 1e-12


class DppModel:
    """A DPP over {1..n}, addressable through either kernel.

    Create with :meth:`from_marginal` or :meth:`from_ensemble`. The kernel
    supplied is stored as given; one eigendecomposition K = V diag(λ) Vᵀ
    validates it and yields the other, L = V diag(λ/(1-λ)) Vᵀ.
    """

    def __init__(self, marginal: MarginalKernel, ensemble: Optional[EnsembleKernel] = None):
        self._set(marginal, ensemble, *_eigh(marginal.matrix))

    def _set(self, marginal, ensemble, lam, vecs) -> "DppModel":
        # λ > eps_spec already gives λ/(1-λ) > eps_spec: L needs no range check.
        if ensemble is None:
            ensemble = EnsembleKernel(_compose(vecs, lam / (1.0 - lam)))
        self._marginal, self._ensemble, self._lam, self._vecs = marginal, ensemble, lam, vecs
        return self

    @classmethod
    def from_marginal(cls, k: MatrixLike, eps_spec: float = DEFAULT_EPS_SPEC) -> "DppModel":
        sym = _as_sym(k)
        lam, vecs = _eigh(sym)
        _check_marginal_spectrum(lam, eps_spec)
        return cls.__new__(cls)._set(MarginalKernel(sym), None, lam, vecs)

    @classmethod
    def from_ensemble(cls, l: MatrixLike, eps_spec: float = DEFAULT_EPS_SPEC) -> "DppModel":
        sym = _as_sym(l)
        ell, vecs = _eigh(sym)
        _check_ensemble_spectrum(ell, eps_spec)
        lam = ell / (1.0 + ell)
        _check_marginal_spectrum(lam, eps_spec)
        marginal = MarginalKernel(_compose(vecs, lam))
        return cls.__new__(cls)._set(marginal, EnsembleKernel(sym), lam, vecs)

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
        return _compose(self._vecs, 1.0 / self._lam)

    def __repr__(self) -> str:
        return f"DppModel(n={self.n})"


def _clamp_probability(p: float, tol: float = PROB_CLAMP_TOL) -> float:
    """Snap values within tol of [0, 1] onto the interval; reject worse ones, NaN and ±inf."""
    if not -tol <= p <= 1.0 + tol:  # false for NaN as well
        raise NumericalFailureError(
            f"computed probability {p!r} is not within tolerance {tol:.1e} of [0, 1]"
        )
    return min(max(p, 0.0), 1.0)


def inclusion_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(A ⊆ Y) = det(K_A). The empty set gives 1."""
    aset = as_index_set(a)
    aset.check_within(model.n, "inclusion set")
    idx = aset.indices0
    sub = model.marginal.array[np.ix_(idx, idx)]
    return _clamp_probability(float(np.linalg.det(sub)))


def exact_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(Y = A) = det(L_A) / det(L + I)."""
    aset = as_index_set(a)
    aset.check_within(model.n, "sample set")
    larr = model.ensemble.array
    idx = aset.indices0
    num = float(np.linalg.det(larr[np.ix_(idx, idx)]))
    den = float(np.linalg.det(larr + np.eye(model.n)))
    return _clamp_probability(num / den)


def mixed_prob(model: DppModel, event: Event) -> float:
    """Pr(A ⊆ Y, B ∩ Y = ∅) for event (include=A, exclude=B).

    Computed as (-1)^|B| times the determinant of the bordered matrix

        [[ K_A,    K_{A,B}   ],
         [ K_{B,A}, K_B - I  ]]

    which is an LU determinant; the matrix is indefinite by design.
    """
    event.check_within(model.n)
    karr = model.marginal.array
    ai = event.include.indices0
    bi = event.exclude.indices0
    order = np.concatenate([ai, bi])
    bordered = karr[np.ix_(order, order)].copy()
    nb = len(bi)
    if nb:
        diag = np.arange(len(ai), len(order))
        bordered[diag, diag] -= 1.0
    det = float(np.linalg.det(bordered))
    return _clamp_probability(((-1.0) ** nb) * det)


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
        return _positions(self.labels, as_index_set(a))

    def model(self) -> DppModel:
        """The conditional law as a DPP model on the reduced ground set."""
        return DppModel(self.kernel)


def _condition(
    model: DppModel, given: Event, eps_spec: float
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Marginal kernel after conditioning on ``given``, unvalidated, plus the
    original labels of its rows.

    The exclusion step comes first: C ∩ Y = ∅ turns K into
    I - (I-K)/(I-K)_C. The inclusion step then takes the Schur complement
    on D ⊆ Y. The model's spectrum check already covers I - K, whose
    eigenvalues are 1 - λ, so it is not validated again.
    """
    n = model.n
    arr = model.marginal.array
    labels = tuple(range(1, n + 1))
    if given.exclude:
        s = schur_complement(SymMatrix._wrap(np.eye(n) - arr), given.exclude, eps_spec)
        arr = np.eye(s.n) - s.array
        labels = tuple(given.exclude.complement(n))
    if given.include:
        local = IndexSet(int(p) + 1 for p in _positions(labels, given.include))
        arr = schur_complement(SymMatrix._wrap(arr), local, eps_spec).array
        labels = tuple(lab for lab in labels if lab not in given.include)
    return arr, labels


def conditional_kernel(
    model: DppModel, given: Event, eps_spec: float = DEFAULT_EPS_SPEC
) -> ConditionalKernel:
    """Kernel of Y restricted to the remaining elements, given a mixed event.

    Applies the exclusion reduction first, then the inclusion Schur step on
    the reduced kernel. Either part of the event may be empty.
    """
    given.check_within(model.n)
    arr, labels = _condition(model, given, eps_spec)
    return ConditionalKernel(validate_marginal(SymMatrix._wrap(arr), eps_spec), labels)


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
