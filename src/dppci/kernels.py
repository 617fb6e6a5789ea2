"""Symmetric matrices, index sets, kernel validation, and Schur complements.

External indices are 1-based throughout: the ground set of an n x n kernel
is {1, ..., n}. Row/column 0 of the stored array corresponds to element 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    IndexOutOfRangeError,
    NonFiniteError,
    NumericalFailureError,
    OverlappingSetsError,
    SingularConditioningBlockError,
    SpectrumOutOfRangeError,
)

DEFAULT_SYM_TOL = 1e-12
DEFAULT_EPS_SPEC = 1e-10
DEFAULT_ZERO_TOL = 1e-9


class SymMatrix:
    """A dense real symmetric matrix, stored exactly symmetric and read-only.

    Construction checks the input for finiteness and near-symmetry
    (``max|M - M^T| <= sym_tol * max|M|``), then stores ``(M + M^T) / 2``.
    """

    __slots__ = ("array",)

    def __init__(self, values, sym_tol: float = DEFAULT_SYM_TOL):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("matrix has non-finite entries")
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        residual = float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0
        if residual > sym_tol * scale:
            raise AsymmetricMatrixError(
                f"matrix is not symmetric: max|M - M^T| = {residual:.3e} "
                f"exceeds {sym_tol:.1e} * max|M| = {sym_tol * scale:.3e}",
                residual=residual,
            )
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "array", sym)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "SymMatrix":
        # Internal path for computed results: symmetrize unconditionally,
        # no asymmetry gate (products and solves leave rounding asymmetry).
        obj = cls.__new__(cls)
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(obj, "array", sym)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.array))) if self.array.size else 0.0

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


@dataclass(frozen=True)
class IndexSet:
    """An immutable set of 1-based ground-set indices, kept sorted."""

    members: tuple[int, ...]

    def __init__(self, members: Iterable[int] = ()):
        cleaned = []
        for m in members:
            i = int(m)
            if i != m:
                raise IndexOutOfRangeError(f"index {m!r} is not an integer")
            if i < 1:
                raise IndexOutOfRangeError(f"index {i} is not positive (indices are 1-based)")
            cleaned.append(i)
        object.__setattr__(self, "members", tuple(sorted(set(cleaned))))

    @classmethod
    def of(cls, *members: int) -> "IndexSet":
        return cls(members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return item in self.members

    def __bool__(self) -> bool:
        return bool(self.members)

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet(self.members + other.members)

    def isdisjoint(self, other: "IndexSet") -> bool:
        return not set(self.members) & set(other.members)

    def complement(self, n: int) -> "IndexSet":
        inside = set(self.members)
        return IndexSet(i for i in range(1, n + 1) if i not in inside)

    @property
    def mask(self) -> int:
        """Bitmask with bit i-1 set for each member i."""
        m = 0
        for i in self.members:
            m |= 1 << (i - 1)
        return m

    @property
    def indices0(self) -> np.ndarray:
        """0-based positions into the stored array."""
        return np.array([i - 1 for i in self.members], dtype=np.intp)

    def check_within(self, n: int, name: str = "index set") -> None:
        if self.members and self.members[-1] > n:
            raise IndexOutOfRangeError(
                f"{name} contains {self.members[-1]} but the ground set is {{1..{n}}}"
            )

    def __repr__(self) -> str:
        return f"IndexSet({set(self.members) if self.members else '{}'})"


EMPTY_SET = IndexSet(())

IndexSetLike = Union[IndexSet, Iterable[int], int, None]


def as_index_set(value: IndexSetLike) -> IndexSet:
    """Coerce None, an int, or any iterable of ints to an IndexSet."""
    if value is None:
        return EMPTY_SET
    if isinstance(value, IndexSet):
        return value
    if isinstance(value, (int, np.integer)):
        return IndexSet((int(value),))
    return IndexSet(value)


def check_disjoint(**named_sets: IndexSet) -> None:
    """Raise OverlappingSetsError if any two of the named sets intersect."""
    owner: dict[int, str] = {}
    for name, s in named_sets.items():
        for i in s:
            first = owner.setdefault(i, name)
            if first != name:
                raise OverlappingSetsError(f"{first} and {name} overlap on [{i}]")


def _query_sets(n: int, **named: IndexSetLike) -> list[IndexSet]:
    """The named sets of one query, coerced, checked to lie in {1..n} and to be
    pairwise disjoint, in the order given.

    Public functions that take several index sets validate them here, once;
    the code behind them takes the returned sets as valid.
    """
    sets = {name: as_index_set(s) for name, s in named.items()}
    for name, s in sets.items():
        s.check_within(n, name)
    check_disjoint(**sets)
    return list(sets.values())


@dataclass(frozen=True)
class Event:
    """The event ``include ⊆ Y`` and ``exclude ∩ Y = ∅``. Sets must be disjoint."""

    include: IndexSet
    exclude: IndexSet

    def __init__(self, include: IndexSetLike = None, exclude: IndexSetLike = None):
        inc = as_index_set(include)
        exc = as_index_set(exclude)
        object.__setattr__(self, "include", inc)
        object.__setattr__(self, "exclude", exc)
        check_disjoint(include=inc, exclude=exc)

    def check_within(self, n: int) -> None:
        self.include.check_within(n, "include set")
        self.exclude.check_within(n, "exclude set")

    @property
    def trivial(self) -> bool:
        return not self.include and not self.exclude


@dataclass(frozen=True, eq=False)
class MarginalKernel:
    """Inclusion-probability kernel K: Pr(A ⊆ Y) = det(K_A), spectrum in (0, 1).

    Build through :func:`validate_marginal`; the constructor does not re-check.
    """

    matrix: SymMatrix

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array

    @property
    def n(self) -> int:
        return self.matrix.n


@dataclass(frozen=True, eq=False)
class EnsembleKernel:
    """L-ensemble kernel: Pr(Y = A) = det(L_A) / det(L + I), L positive definite.

    Build through :func:`validate_ensemble`.
    """

    matrix: SymMatrix

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array

    @property
    def n(self) -> int:
        return self.matrix.n


MatrixLike = Union[SymMatrix, MarginalKernel, EnsembleKernel, np.ndarray, list]


def _as_sym(m: MatrixLike, sym_tol: float = DEFAULT_SYM_TOL) -> SymMatrix:
    if isinstance(m, SymMatrix):
        return m
    if isinstance(m, (MarginalKernel, EnsembleKernel)):
        return m.matrix
    return SymMatrix(m, sym_tol=sym_tol)


def _check_marginal_spectrum(w: np.ndarray, eps_spec: float) -> None:
    if w.size:
        lo, hi = float(w.min()), float(w.max())
        if hi >= 1.0 - eps_spec:
            raise SpectrumOutOfRangeError(
                f"marginal kernel needs eigenvalues in ({eps_spec:.1e}, 1 - {eps_spec:.1e}); "
                f"largest is {hi:.6e}",
                eigenvalue=hi,
            )
        if lo <= eps_spec:
            raise SpectrumOutOfRangeError(
                f"marginal kernel needs eigenvalues in ({eps_spec:.1e}, 1 - {eps_spec:.1e}); "
                f"smallest is {lo:.6e}",
                eigenvalue=lo,
            )


def _check_ensemble_spectrum(w: np.ndarray, eps_spec: float) -> None:
    if w.size:
        lo = float(w.min())
        if lo <= eps_spec:
            raise SpectrumOutOfRangeError(
                f"ensemble kernel must be positive definite; "
                f"smallest eigenvalue is {lo:.6e}",
                eigenvalue=lo,
            )


def validate_marginal(
    m: MatrixLike,
    eps_spec: float = DEFAULT_EPS_SPEC,
    sym_tol: float = DEFAULT_SYM_TOL,
) -> MarginalKernel:
    """Check that m is symmetric with all eigenvalues in (eps, 1 - eps).

    The strict margin keeps every complement, conditional, and inverse
    kernel derived later well defined.
    """
    sym = _as_sym(m, sym_tol)
    _check_marginal_spectrum(np.linalg.eigvalsh(sym.array), eps_spec)
    return MarginalKernel(sym)


def validate_ensemble(
    m: MatrixLike,
    eps_spec: float = DEFAULT_EPS_SPEC,
    sym_tol: float = DEFAULT_SYM_TOL,
) -> EnsembleKernel:
    """Check that m is symmetric positive definite (eigenvalues > eps)."""
    sym = _as_sym(m, sym_tol)
    _check_ensemble_spectrum(np.linalg.eigvalsh(sym.array), eps_spec)
    return EnsembleKernel(sym)


# The spectral core: every kernel derived from K = V diag(lam) V^T shares
# its eigenvectors (Kulesza & Taskar 2012, section 2.2). L has spectrum
# lam / (1 - lam), the dual ensemble 1 / lam - 1 and K^{-1} 1 / lam, so each
# is composed from one eigh and range-checked on its mapped eigenvalues.


def _eigh(sym: SymMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and orthonormal eigenvectors V, M = V diag(w) V^T."""
    try:
        return np.linalg.eigh(sym.array)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def _compose(vecs: np.ndarray, w: np.ndarray) -> SymMatrix:
    """V diag(w) V^T. A non-finite w means the spectrum map hit a pole."""
    if not np.all(np.isfinite(w)):
        raise NumericalFailureError("a kernel derived from the spectrum has non-finite eigenvalues")
    return SymMatrix._wrap((vecs * w) @ vecs.T)


def k_from_l(l: EnsembleKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> MarginalKernel:
    """Marginal kernel of the L-ensemble: K = (L + I)^{-1} L = I - (L + I)^{-1}."""
    ell, vecs = _eigh(l.matrix)
    lam = ell / (1.0 + ell)
    _check_marginal_spectrum(lam, eps_spec)
    return MarginalKernel(_compose(vecs, lam))


def l_from_k(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> EnsembleKernel:
    """L-ensemble kernel of the marginal kernel: L = (I - K)^{-1} K."""
    lam, vecs = _eigh(k.matrix)
    ell = lam / (1.0 - lam)
    _check_ensemble_spectrum(ell, eps_spec)
    return EnsembleKernel(_compose(vecs, ell))


def complement_marginal(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> MarginalKernel:
    """Marginal kernel of the complement process {1..n} \\ Y, namely I - K."""
    return validate_marginal(SymMatrix._wrap(np.eye(k.n) - k.array), eps_spec)


def dual_ensemble(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> EnsembleKernel:
    """L-ensemble kernel of the complement process: K^{-1} - I."""
    lam, vecs = _eigh(k.matrix)
    lbar = 1.0 / lam - 1.0
    _check_ensemble_spectrum(lbar, eps_spec)
    return EnsembleKernel(_compose(vecs, lbar))


def _positions(labels: tuple[int, ...], a: IndexSet) -> np.ndarray:
    """0-based positions of the elements of a within labels. All must be present."""
    pos = {label: j for j, label in enumerate(labels)}
    missing = [i for i in a if i not in pos]
    if missing:
        raise KeyError(f"elements {missing} are not in the conditional ground set")
    return np.array([pos[i] for i in a], dtype=np.intp)


def submatrix(m: MatrixLike, a: IndexSetLike) -> SymMatrix:
    """Principal submatrix M_A (rows and columns A, in ascending order)."""
    sym = _as_sym(m)
    aset = as_index_set(a)
    aset.check_within(sym.n)
    idx = aset.indices0
    return SymMatrix._wrap(sym.array[np.ix_(idx, idx)])


def block(m: MatrixLike, a: IndexSetLike, b: IndexSetLike) -> np.ndarray:
    """Off-diagonal block M_{A,B} (rows A, columns B) as a plain array."""
    sym = _as_sym(m)
    aset, bset = as_index_set(a), as_index_set(b)
    aset.check_within(sym.n)
    bset.check_within(sym.n)
    return sym.array[np.ix_(aset.indices0, bset.indices0)]


def schur_complement(
    m: MatrixLike,
    c: IndexSetLike,
    eps_spec: float = DEFAULT_EPS_SPEC,
) -> SymMatrix:
    """Schur complement M / M_C, indexed by the complement of C in ascending order.

    For empty C this is M itself. Raises SingularConditioningBlockError when
    M_C has an eigenvalue of magnitude <= eps_spec times its largest, so the
    block cannot be inverted reliably.
    """
    sym = _as_sym(m)
    cset = as_index_set(c)
    cset.check_within(sym.n)
    return _schur(sym, cset, eps_spec)[0]


def _schur(sym: SymMatrix, cset: IndexSet, eps_spec: float) -> tuple[SymMatrix, np.ndarray]:
    """M / M_C for a C already checked against the ground set, plus the
    eigenvalues of M_C (none for empty C) that its singularity test used."""
    if not cset:
        return sym, np.empty(0)
    ci = cset.indices0
    ri = cset.complement(sym.n).indices0
    mc = sym.array[np.ix_(ci, ci)]
    w = np.linalg.eigvalsh(mc)
    aw = np.abs(w)
    if float(aw.min()) <= eps_spec * float(aw.max()):
        raise SingularConditioningBlockError(
            f"conditioning block for C={list(cset)} is numerically singular "
            f"(|eigenvalues| span {aw.min():.3e} .. {aw.max():.3e})",
            det_estimate=float(np.prod(w)),
        )
    mrc = sym.array[np.ix_(ri, ci)]
    s = sym.array[np.ix_(ri, ri)] - mrc @ np.linalg.solve(mc, mrc.T)
    return SymMatrix._wrap(s), w
