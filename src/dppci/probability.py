"""Event probabilities and conditional kernels of a DPP model.

A DppModel keeps the kernel it was given and the other one composed from its
eigendecomposition, which both carry; K⁻¹ is read from the same (λ, V).
The probability of an event D ⊆ Y, C ∩ Y = ∅ is read from the smaller of two
blocks (``_route``). One is the bordered block of K on E = C ∪ D, K minus 1
on C's diagonal (``kernels._bordered``): (-1)^|C| times its determinant. The
other sums the L-ensemble's Pr(Y = S) = det(L_S) / det(L + I) over
D ⊆ S ⊆ R = {1..n} ∖ C: det(L_R + I on R ∖ D) / det(L + I), a positive
definite block taken in logs, with log det(L + I) = Σ log1p(w_L) read from
the spectrum L carries, so det(L + I) itself is never formed. An L whose
entries are too coarse for that (one composed from a K with an eigenvalue
within about 1e-4 of 1) keeps K's block. The event D = {1..n} reads det K
from K's spectrum. The conditional kernel is the
one Schur step of K's bordered block (``kernels._condition``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError
from .kernels import (
    EnsembleKernel,
    Event,
    IndexSetLike,
    MarginalKernel,
    MatrixLike,
    _UNIT_ROUNDOFF,
    _bits,
    _bordered,
    _condition,
    _eigh,
    _query_masks,
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

    # Both decompose first (one eigh): the other kernel is composed from
    # that spectrum at once, so a Cholesky would validate in vain.

    @classmethod
    def from_marginal(cls, k: MatrixLike) -> "DppModel":
        marginal = validate_marginal(_eigh(k))
        return cls(marginal, l_from_k(marginal))

    @classmethod
    def from_ensemble(cls, l: MatrixLike) -> "DppModel":
        ensemble = validate_ensemble(_eigh(l))
        return cls(k_from_l(ensemble), ensemble)

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


def _k_block_prob(model: DppModel, include: int, exclude: int) -> float:
    """(-1)^|C| times the LU determinant of K's (indefinite) bordered block
    on C ∪ D, for the masks include (D) and exclude (C)."""
    det = float(np.linalg.det(_bordered(model.marginal.array, include | exclude, exclude)))
    return _clamp_probability((-1.0) ** exclude.bit_count() * det)


def _l_block_prob(model: DppModel, include: int, exclude: int) -> float:
    """det(L_R + I on R ∖ D) / det(L + I), R = {1..n} ∖ C, for the masks
    include (D) and exclude (C): the exp of the block's log determinant minus
    Σ log1p(w_L), so det(L + I) is never formed and 0.0 comes back only where
    the probability lies below the double range. The block is positive
    definite; a sign other than 1 is rounding on a numerically singular L_D."""
    rest = ((1 << model.n) - 1) ^ exclude
    sign, log_det = np.linalg.slogdet(_bordered(model.ensemble.array, rest, rest ^ include, 1.0))
    log_p = float(log_det) - float(np.sum(np.log1p(model.ensemble.w)))
    return _clamp_probability(float(sign) * math.exp(log_p))


def _spectrum_prob(model: DppModel, include: int, exclude: int) -> float:
    """det K for the event D = {1..n}: the exp of Σ log(w_K), K's spectrum."""
    return _clamp_probability(math.exp(float(np.sum(np.log(model.marginal.w)))))


# Each block an event's probability is read from, by the name _route gives it.
_ROUTES = {"K": _k_block_prob, "L": _l_block_prob, "spectrum": _spectrum_prob}


def _route(model: DppModel, included: int, excluded: int) -> str:
    """The block an event's probability is read from, given how many elements
    it includes (|D|) and excludes (|C|) of {1..n}: "spectrum" for D = {1..n};
    "L" where L's block on the rest is the smaller, |C ∪ D| > n - |C|, and
    L's largest eigenvalue is at most PROB_CLAMP_TOL / u; else "K". An entry
    of an L composed from K's spectrum is off by about u times that
    eigenvalue, and so is a probability read from L, so an L beyond it (K's
    top eigenvalue within about 1e-4 of 1) keeps K's block."""
    n = model.n
    if included == n:
        return "spectrum"
    if included + 2 * excluded <= n or float(model.ensemble.w[-1]) * _UNIT_ROUNDOFF > PROB_CLAMP_TOL:
        return "K"
    return "L"


def _event_prob(model: DppModel, include: int, exclude: int) -> float:
    """Pr(D ⊆ Y, C ∩ Y = ∅) for the masks include (D) and exclude (C), from
    the smaller block (``_route``)."""
    route = _route(model, include.bit_count(), exclude.bit_count())
    return _ROUTES[route](model, include, exclude)


def inclusion_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(A ⊆ Y) = det(K_A), read from K's spectrum for A = {1..n}. The
    empty set gives 1."""
    (amask,) = _query_masks(model.n, (a,), ("a",))
    return _event_prob(model, amask, 0)


def exact_prob(model: DppModel, a: IndexSetLike) -> float:
    """Pr(Y = A): the event that includes A and excludes the rest, read as
    det(L_A) / det(L + I), or as det K for A = {1..n} (see ``_route``)."""
    (amask,) = _query_masks(model.n, (a,), ("a",))
    return _event_prob(model, amask, ((1 << model.n) - 1) ^ amask)


def mixed_prob(model: DppModel, event: Event) -> float:
    """Pr(A ⊆ Y, B ∩ Y = ∅) for event (include=A, exclude=B).

    Computed as (-1)^|B| times the determinant of the bordered matrix

        [[ K_A,    K_{A,B}   ],
         [ K_{B,A}, K_B - I  ]]

    or, where |A| + 2|B| > n, as det(L_R + I on R ∖ A) / det(L + I) with
    R the complement of B, whose block is the smaller (see ``_route``).
    """
    include, exclude = _query_masks(model.n, (event.include, event.exclude), ("include", "exclude"))
    return _event_prob(model, include, exclude)


@dataclass(frozen=True)
class ConditionalKernel:
    """A marginal kernel on a reduced ground set, with original labels.

    ``labels[j]`` is the original 1-based element behind local row/column j,
    so ``np.searchsorted(labels, a)`` are the local positions of a. The kernel
    is validated by Cholesky where that settles it, so it is decomposed only
    when its w or V is first read. Its law as a model,
    ``DppModel.from_marginal(kernel)``, runs that one eigh (none if the
    eigen test validated it) and never rejects: the Cholesky accept leaves a
    rounding band inside the eigen test's range.
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
    part of the event may be empty.
    """
    include, exclude = _query_masks(model.n, (given.include, given.exclude), ("include", "exclude"))
    # An empty event leaves K, whose decomposition the model carries.
    step = _condition(model.marginal.matrix, include, exclude)
    return ConditionalKernel(validate_marginal(step.full()), _bits(step.rest))
