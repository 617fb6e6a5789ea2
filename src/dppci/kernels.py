"""Symmetric matrices, index sets, kernel validation, and the conditioning step:
the one Schur step (``_condition``) on an event's bordered block (``_bordered``).

External indices are 1-based throughout: the ground set of an n x n kernel
is {1, ..., n}. Row/column 0 of the stored array corresponds to element 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    IndexOutOfRangeError,
    InvalidToleranceError,
    NonFiniteError,
    NumericalFailureError,
    OverlappingSetsError,
    SingularConditioningBlockError,
    SpectrumOutOfRangeError,
)

DEFAULT_SYM_TOL = 1e-12
DEFAULT_EPS_SPEC = 1e-10
DEFAULT_ZERO_TOL = 1e-9


def _check_tolerance(name: str, value: float) -> float:
    """value, if it is a finite non-negative number."""
    if not 0.0 <= value < np.inf:  # false for NaN as well
        raise InvalidToleranceError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


class SymMatrix:
    """A dense real symmetric matrix, stored exactly symmetric and read-only.

    Construction checks the input for finiteness and near-symmetry
    (``max|M - M^T| <= sym_tol * max|M|``), then stores ``(M + M^T) / 2``.
    """

    __slots__ = ("array",)

    def __init__(self, values, sym_tol: float = DEFAULT_SYM_TOL):
        _check_tolerance("sym_tol", sym_tol)
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
            try:
                i = int(m)
            except (TypeError, ValueError, OverflowError):  # None, NaN, ±inf, ...
                i = None
            if i is None or i != m:
                raise IndexOutOfRangeError(f"index {m!r} is not an integer")
            if i < 1:
                raise IndexOutOfRangeError(f"index {i} is not positive (indices are 1-based)")
            cleaned.append(i)
        object.__setattr__(self, "members", tuple(sorted(set(cleaned))))

    @classmethod
    def _trusted(cls, members: tuple[int, ...]) -> "IndexSet":
        """The set of members already known to be sorted, distinct, positive ints."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "members", members)
        return obj

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
        return IndexSet._trusted(tuple(sorted(set(self.members + other.members))))

    def complement(self, n: int) -> "IndexSet":
        inside = set(self.members)
        return IndexSet._trusted(tuple(i for i in range(1, n + 1) if i not in inside))

    @property
    def mask(self) -> int:
        """Bitmask with bit i-1 set for each member i."""
        m = 0
        for i in self.members:
            m |= 1 << (i - 1)
        return m

    @classmethod
    def _of_mask(cls, mask: int) -> "IndexSet":
        """The set of a mask's bits, walking only those set."""
        members = []
        while mask:
            low = mask & -mask
            members.append(low.bit_length())
            mask ^= low
        return cls._trusted(tuple(members))

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
    """Coerce None, an iterable of ints, or one int-valued scalar to an IndexSet."""
    if value is None:
        return EMPTY_SET
    if isinstance(value, IndexSet):
        return value
    try:
        members = iter(value)
    except TypeError:  # a scalar is the one-element set of it
        members = (value,)
    return IndexSet(members)


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

    Every public function that takes an index set or an Event validates it
    here, once; the code behind it takes the returned sets as valid.
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

    @property
    def trivial(self) -> bool:
        return not self.include and not self.exclude


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A symmetric matrix with the eigendecomposition matrix = V diag(w) Vᵀ
    (w ascending, both read-only) that validated it or that it was composed
    from; every kernel derived from it is a map of w composed with V."""

    matrix: SymMatrix
    w: np.ndarray = field(repr=False)
    vecs: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.w.flags.writeable = False
        self.vecs.flags.writeable = False

    @property
    def array(self) -> np.ndarray:
        return self.matrix.array

    @property
    def n(self) -> int:
        return self.matrix.n


class MarginalKernel(_Kernel):
    """Inclusion-probability kernel K: Pr(A ⊆ Y) = det(K_A), spectrum in (0, 1).

    Build through :func:`validate_marginal`; the constructor does not re-check.
    """


class EnsembleKernel(_Kernel):
    """L-ensemble kernel: Pr(Y = A) = det(L_A) / det(L + I), L positive definite.

    Build through :func:`validate_ensemble`.
    """


MatrixLike = Union[SymMatrix, MarginalKernel, EnsembleKernel, np.ndarray, list]


def _as_sym(m: MatrixLike, sym_tol: float = DEFAULT_SYM_TOL) -> SymMatrix:
    if isinstance(m, SymMatrix):
        return m
    if isinstance(m, _Kernel):
        return m.matrix
    return SymMatrix(m, sym_tol=sym_tol)


def _check_marginal_spectrum(w: np.ndarray, eps_spec: float) -> None:
    _check_tolerance("eps_spec", eps_spec)
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
    _check_tolerance("eps_spec", eps_spec)
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
    k = _eigh(m, sym_tol)
    _check_marginal_spectrum(k.w, eps_spec)
    return MarginalKernel(k.matrix, k.w, k.vecs)


def validate_ensemble(
    m: MatrixLike,
    eps_spec: float = DEFAULT_EPS_SPEC,
    sym_tol: float = DEFAULT_SYM_TOL,
) -> EnsembleKernel:
    """Check that m is symmetric positive definite (eigenvalues > eps)."""
    k = _eigh(m, sym_tol)
    _check_ensemble_spectrum(k.w, eps_spec)
    return EnsembleKernel(k.matrix, k.w, k.vecs)


# The spectral core: every kernel derived from K = V diag(lam) V^T shares
# its eigenvectors (Kulesza & Taskar 2012, section 2.2). L has spectrum
# lam / (1 - lam), I - K 1 - lam, the dual ensemble 1 / lam - 1 and K^{-1}
# 1 / lam, so each is composed from the (w, V) its input carries.


def _eigh(m: MatrixLike, sym_tol: float = DEFAULT_SYM_TOL) -> _Kernel:
    """m with its eigendecomposition: a kernel object's own, else one eigh."""
    if isinstance(m, _Kernel):
        return m
    sym = _as_sym(m, sym_tol)
    try:
        return _Kernel(sym, *np.linalg.eigh(sym.array))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc


def _compose(vecs: np.ndarray, w: np.ndarray) -> SymMatrix:
    """V diag(w) V^T. A non-finite w means the spectrum map hit a pole."""
    if not np.all(np.isfinite(w)):
        raise NumericalFailureError("a kernel derived from the spectrum has non-finite eigenvalues")
    return SymMatrix._wrap((vecs * w) @ vecs.T)


def k_from_l(l: EnsembleKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> MarginalKernel:
    """Marginal kernel of the L-ensemble: K = (L + I)^{-1} L = I - (L + I)^{-1}."""
    lam = l.w / (1.0 + l.w)
    _check_marginal_spectrum(lam, eps_spec)
    return MarginalKernel(_compose(l.vecs, lam), lam, l.vecs)


def l_from_k(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> EnsembleKernel:
    """L-ensemble kernel of the marginal kernel: L = (I - K)^{-1} K."""
    ell = k.w / (1.0 - k.w)
    _check_ensemble_spectrum(ell, eps_spec)
    return EnsembleKernel(_compose(k.vecs, ell), ell, k.vecs)


def complement_marginal(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> MarginalKernel:
    """Marginal kernel of the complement process {1..n} \\ Y, namely I - K."""
    w = 1.0 - k.w[::-1]
    _check_marginal_spectrum(w, eps_spec)
    # By subtraction, so that exact zeros stay exact.
    return MarginalKernel(SymMatrix._wrap(np.eye(k.n) - k.array), w, k.vecs[:, ::-1])


def dual_ensemble(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> EnsembleKernel:
    """L-ensemble kernel of the complement process: K^{-1} - I."""
    lbar = 1.0 / k.w - 1.0
    _check_ensemble_spectrum(lbar, eps_spec)
    return EnsembleKernel(_compose(k.vecs, lbar), lbar[::-1], k.vecs[:, ::-1])


def _positions(rows: IndexSet, a: IndexSet) -> np.ndarray:
    """0-based positions within rows of the elements of a ⊆ rows."""
    return np.searchsorted(rows.indices0, a.indices0)


def submatrix(m: MatrixLike, a: IndexSetLike) -> SymMatrix:
    """Principal submatrix M_A (rows and columns A, in ascending order)."""
    sym = _as_sym(m)
    (aset,) = _query_sets(sym.n, a=a)
    idx = aset.indices0
    return SymMatrix._wrap(sym.array.take(idx, 0).take(idx, 1))


def block(m: MatrixLike, a: IndexSetLike, b: IndexSetLike) -> np.ndarray:
    """Off-diagonal block M_{A,B} (rows A, columns B) as a plain array."""
    sym = _as_sym(m)
    (aset,), (bset,) = _query_sets(sym.n, a=a), _query_sets(sym.n, b=b)  # A, B may overlap
    return sym.array.take(aset.indices0, 0).take(bset.indices0, 1)


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
    (cset,) = _query_sets(sym.n, c=c)
    return _condition(sym, cset, EMPTY_SET, eps_spec)[0]


def _bordered(arr: np.ndarray, e: IndexSet, exclude: IndexSet) -> np.ndarray:
    """arr on E, minus 1 on the diagonal of the excluded elements C ⊆ E."""
    ei = e.indices0
    out = arr.take(ei, 0).take(ei, 1)
    c = _positions(e, exclude)
    out[c, c] -= 1.0
    return out


def _condition(
    m: Union[SymMatrix, _Kernel], include: IndexSet, exclude: IndexSet, eps_spec: float
) -> tuple[Union[SymMatrix, _Kernel], IndexSet, np.ndarray]:
    """One Schur step on E = D ∪ C (include, exclude; checked against m) of m
    with 1 subtracted on C's diagonal: the result on the rest R, R as an
    IndexSet, and the E block's eigenvalues; m itself for empty E. On K it is
    K/K_D for D alone, I - (I-K)/(I-K)_C for C alone, and mixed in one step.
    """
    _check_tolerance("eps_spec", eps_spec)
    e = include.union(exclude)
    rest = e.complement(m.n)
    if not e:
        return m, rest, np.empty(0)
    me = _bordered(m.array, e, exclude)
    w = np.linalg.eigvalsh(me)
    aw = np.abs(w)
    if float(aw.min()) <= eps_spec * float(aw.max()):
        raise SingularConditioningBlockError(
            f"conditioning block for C={list(e)} is numerically singular "
            f"(|eigenvalues| span {aw.min():.3e} .. {aw.max():.3e})",
            det_estimate=float(np.prod(w)),
        )
    ri = rest.indices0
    rows = m.array.take(ri, 0)
    mre = rows.take(e.indices0, 1)
    s = rows.take(ri, 1) - mre @ np.linalg.solve(me, mre.T)
    return SymMatrix._wrap(s), rest, w
