"""Symmetric matrices, index sets, kernel validation, and the conditioning step:
the one Schur step (``_condition``) on an event's bordered block (``_bordered``).

A SymMatrix is decomposed at most once: ``_eigh`` is the one eigh, and every
matrix composed from a known spectrum (K, L, I - K, K^{-1}) carries the mapped
one, so no derived matrix is decomposed again; the dual ensemble, the L of
I - K, is ``l_from_k(complement_marginal(k))``.

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
_FLOAT_MAX = float(np.finfo(float).max)


def _is_bool(m) -> bool:
    """Whether m is a bool of Python or numpy, never an index (True == 1)."""
    return isinstance(m, bool) or getattr(m, "dtype", None) == bool


def _check_tolerance(name: str, value: float) -> float:
    """value, if it is a finite non-negative int or float of Python or numpy (no bool)."""
    real = type(value) is float or (  # the plain float first: it is checked on every query
        isinstance(value, (int, np.integer, np.floating)) and not isinstance(value, bool)
    )
    # < inf is false for NaN too; a Python int compares exactly, so one can pass it and overflow.
    if not (real and 0.0 <= value < np.inf) or isinstance(value, int) and value > _FLOAT_MAX:
        raise InvalidToleranceError(f"{name} must be a finite non-negative number, got {value!r}")
    return value


def _zero_threshold(scale: float, zero_tol: float, amplification: float = 1.0) -> float:
    """The absolute threshold at or below which an entry of a matrix whose
    largest entry is scale reads as zero: zero_tol times scale (zero_tol
    itself when scale is 0), times the amplification of rounding by the
    computation that produced the entry. Rejects a threshold that overflows."""
    _check_tolerance("zero_tol", zero_tol)
    threshold = (zero_tol * scale if scale > 0 else zero_tol) * amplification
    if not threshold < np.inf:  # false for NaN as well
        raise InvalidToleranceError(
            f"zero_tol {zero_tol!r} at scale {scale:.3e} gives a non-finite threshold"
        )
    return threshold


class SymMatrix:
    """A dense real symmetric matrix, stored exactly symmetric and read-only.

    Construction checks the input for finiteness and near-symmetry
    (``max|M - M^T| <= sym_tol * max|M|``), then stores ``(M + M^T) / 2``.
    The matrix keeps its one eigendecomposition M = V diag(w) V^T (w
    ascending, both read-only) once known: a matrix composed from a spectrum
    carries that one, any other gets it from its first ``_eigh``. It keeps
    its induced graph per zero_tol the same way (``graphs.induced_graph``).
    """

    __slots__ = ("array", "_spectrum", "_graphs")

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
        self._store(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "SymMatrix":
        # Internal path for computed results: symmetrize unconditionally,
        # no asymmetry gate (products and solves leave rounding asymmetry).
        obj = cls.__new__(cls)
        obj._store(arr)
        return obj

    def _store(self, arr: np.ndarray) -> None:
        sym = (arr + arr.T) / 2.0
        sym.flags.writeable = False
        object.__setattr__(self, "array", sym)
        object.__setattr__(self, "_spectrum", None)
        object.__setattr__(self, "_graphs", {})

    def _carry(self, w: np.ndarray, vecs: np.ndarray) -> "SymMatrix":
        """Keep (w ascending, V) as this matrix's eigendecomposition; returns self."""
        w.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "_spectrum", (w, vecs))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    @property
    def n(self) -> int:
        return self.array.shape[0]

    def max_abs(self) -> float:
        return float(np.abs(self.array).max()) if self.array.size else 0.0

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


def _bits(mask: int) -> tuple[int, ...]:
    """The elements of a mask, bit i - 1 for element i, walking only its set bits."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length())
        mask ^= low
    return tuple(members)


@dataclass(frozen=True)
class IndexSet:
    """An immutable set of 1-based ground-set indices, kept sorted.

    Its bitmask is computed on first read and kept. A member can be any
    size, so the mask is read only once the set is known to lie in {1..n}.
    """

    members: tuple[int, ...]
    _mask = None  # the kept bitmask; not a field, so equality reads members only

    def __init__(self, members: Iterable[int] = ()):
        members = tuple(members)
        increasing, last = True, 0
        for m in members:
            if type(m) is not int or m < 1:  # bool, numpy ints, floats, ...: one by one
                members, increasing = self._cleaned(members), False
                break
            increasing = increasing and m > last
            last = m
        if not increasing:  # only then sort and drop repeats
            members = tuple(sorted(set(members)))
        object.__setattr__(self, "members", members)

    @staticmethod
    def _cleaned(members: tuple) -> list[int]:
        """Each member as a positive int, or the error naming the first that is not."""
        cleaned = []
        for m in members:
            try:
                i = int(m)
            except (TypeError, ValueError, OverflowError):  # None, NaN, ±inf, ...
                i = None
            if _is_bool(m):
                i = None
            if i is None or i != m:
                raise IndexOutOfRangeError(f"index {m!r} is not an integer")
            if i < 1:
                raise IndexOutOfRangeError(f"index {i} is not positive (indices are 1-based)")
            cleaned.append(i)
        return cleaned

    @classmethod
    def _trusted(cls, members: tuple[int, ...]) -> "IndexSet":
        """The set of members already known to be sorted, distinct, positive ints."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "members", members)
        return obj

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return not _is_bool(item) and item in self.members

    def __bool__(self) -> bool:
        return bool(self.members)

    def union(self, other: "IndexSet") -> "IndexSet":
        return IndexSet._trusted(tuple(sorted(set(self.members + other.members))))

    def complement(self, n: int) -> "IndexSet":
        inside = set(self.members)
        return IndexSet._trusted(tuple(i for i in range(1, n + 1) if i not in inside))

    @property
    def mask(self) -> int:
        """Bitmask with bit i-1 set for each member i, kept once computed."""
        m = self._mask
        if m is None:
            m = 0
            for i in self.members:
                m |= 1 << (i - 1)
            object.__setattr__(self, "_mask", m)
        return m

    @classmethod
    def _of_mask(cls, mask: int) -> "IndexSet":
        """The set of a mask's bits."""
        return cls._trusted(_bits(mask))

    @property
    def indices0(self) -> np.ndarray:
        """0-based positions into the stored array."""
        return np.array([i - 1 for i in self.members], dtype=np.intp)

    def __repr__(self) -> str:
        return f"IndexSet({set(self.members) if self.members else '{}'})"


_EMPTY_SET = IndexSet(())

IndexSetLike = Union[IndexSet, Iterable[int], int, None]


def _as_index_set(value: IndexSetLike) -> IndexSet:
    """Coerce None, an iterable of ints, or one int-valued scalar to an IndexSet."""
    if isinstance(value, IndexSet):
        return value
    if value is None:
        return _EMPTY_SET
    try:
        members = iter(value)
    except TypeError:  # a scalar is the one-element set of it
        members = (value,)
    return IndexSet(members)


def check_disjoint(**named_sets: IndexSet) -> None:
    """Raise OverlappingSetsError if any two of the named sets intersect.

    Sets of distinct members are disjoint when their sizes add up to the
    size of their union; only an overlap is looked for element by element,
    to name it.
    """
    members = [s.members for s in named_sets.values()]
    if sum(map(len, members)) == len(set().union(*members)):
        return
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
    here, once; the code behind it takes the returned sets as valid. Every
    set is coerced before any is checked, so a coercion error comes first.
    Then, in one pass, each set's range is checked before its mask is read,
    so masks are bounded by 2^n, and disjointness is a running AND of them.
    An overlap is named by check_disjoint, once every range has passed.
    """
    sets = [_as_index_set(s) for s in named.values()]
    seen = overlap = 0
    for name, s in zip(named, sets):
        if s.members and s.members[-1] > n:
            raise IndexOutOfRangeError(
                f"{name} contains {s.members[-1]} but the ground set is {{1..{n}}}"
            )
        mask = s.mask
        overlap |= seen & mask
        seen |= mask
    if overlap:
        check_disjoint(**dict(zip(named, sets)))
    return sets


@dataclass(frozen=True)
class Event:
    """The event ``include ⊆ Y`` and ``exclude ∩ Y = ∅``. Sets must be disjoint."""

    include: IndexSet
    exclude: IndexSet

    def __init__(self, include: IndexSetLike = None, exclude: IndexSetLike = None):
        inc = _as_index_set(include)
        exc = _as_index_set(exclude)
        object.__setattr__(self, "include", inc)
        object.__setattr__(self, "exclude", exc)
        check_disjoint(include=inc, exclude=exc)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A validated kernel: a symmetric matrix that carries its
    eigendecomposition matrix = V diag(w) V^T (w ascending, both read-only),
    the one that validated it or that it was composed from; every kernel
    derived from it is a map of w composed with V."""

    matrix: SymMatrix

    def __post_init__(self):
        if self.matrix._spectrum is None:
            raise TypeError(
                f"{type(self).__name__} needs a matrix that carries its eigendecomposition; "
                "build it through validate_marginal or validate_ensemble"
            )

    @property
    def w(self) -> np.ndarray:
        return self.matrix._spectrum[0]

    @property
    def vecs(self) -> np.ndarray:
        return self.matrix._spectrum[1]

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


def _as_sym(m: MatrixLike) -> SymMatrix:
    if isinstance(m, SymMatrix):
        return m
    if isinstance(m, _Kernel):
        return m.matrix
    return SymMatrix(m)


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


def validate_marginal(m: MatrixLike, eps_spec: float = DEFAULT_EPS_SPEC) -> MarginalKernel:
    """Check that m is symmetric with all eigenvalues in (eps, 1 - eps).

    The strict margin keeps every complement, conditional, and inverse
    kernel derived later well defined. A plain array is checked for symmetry
    at DEFAULT_SYM_TOL; pass a SymMatrix built at another sym_tol instead.
    """
    k = _eigh(m)
    _check_marginal_spectrum(k.w, eps_spec)
    return MarginalKernel(k.matrix)


def validate_ensemble(m: MatrixLike, eps_spec: float = DEFAULT_EPS_SPEC) -> EnsembleKernel:
    """Check that m is symmetric positive definite (eigenvalues > eps)."""
    k = _eigh(m)
    _check_ensemble_spectrum(k.w, eps_spec)
    return EnsembleKernel(k.matrix)


# The spectral core: every kernel derived from K = V diag(lam) V^T shares
# its eigenvectors (Kulesza & Taskar 2012, section 2.2). L has spectrum
# lam / (1 - lam), I - K 1 - lam and K^{-1} 1 / lam, so each is composed from
# the (w, V) its input carries, and carries the mapped (w, V) in turn. The
# dual ensemble K^{-1} - I, of spectrum 1 / lam - 1, is the L of I - K.


def _eigh(m: MatrixLike) -> _Kernel:
    """m with its eigendecomposition: the one its SymMatrix carries, else one
    eigh, which the SymMatrix then keeps. A plain array or list is a new
    SymMatrix, so it is decomposed on every call."""
    sym = _as_sym(m)
    if sym._spectrum is None:
        try:
            sym._carry(*np.linalg.eigh(sym.array))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return _Kernel(sym)


def _compose(vecs: np.ndarray, w: np.ndarray) -> SymMatrix:
    """V diag(w) V^T, carrying (w, V). A decreasing map of an ascending
    spectrum leaves w descending; the reversed views are carried then. A
    non-finite w means the spectrum map hit a pole."""
    if not np.all(np.isfinite(w)):
        raise NumericalFailureError("a kernel derived from the spectrum has non-finite eigenvalues")
    sym = SymMatrix._wrap((vecs * w) @ vecs.T)
    if w.size and w[0] > w[-1]:
        w, vecs = w[::-1], vecs[:, ::-1]
    return sym._carry(w, vecs)


def _inverse(k: _Kernel) -> SymMatrix:
    """The inverse V diag(1/w) V^T of a positive definite kernel."""
    return _compose(k.vecs, 1.0 / k.w)


def k_from_l(l: EnsembleKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> MarginalKernel:
    """Marginal kernel of the L-ensemble: K = (L + I)^{-1} L = I - (L + I)^{-1}."""
    lam = l.w / (1.0 + l.w)
    _check_marginal_spectrum(lam, eps_spec)
    return MarginalKernel(_compose(l.vecs, lam))


def l_from_k(k: MarginalKernel, eps_spec: float = DEFAULT_EPS_SPEC) -> EnsembleKernel:
    """L-ensemble kernel of the marginal kernel: L = (I - K)^{-1} K."""
    ell = k.w / (1.0 - k.w)
    _check_ensemble_spectrum(ell, eps_spec)
    return EnsembleKernel(_compose(k.vecs, ell))


def complement_marginal(k: MarginalKernel) -> MarginalKernel:
    """Marginal kernel I - K of the complement process {1..n} \\ Y, at DEFAULT_EPS_SPEC."""
    w = 1.0 - k.w[::-1]
    _check_marginal_spectrum(w, DEFAULT_EPS_SPEC)
    # By subtraction, so that exact zeros stay exact.
    return MarginalKernel(SymMatrix._wrap(np.eye(k.n) - k.array)._carry(w, k.vecs[:, ::-1]))


def _positions(rows: IndexSet, a: IndexSet) -> np.ndarray:
    """0-based positions within rows of the elements of a ⊆ rows."""
    return np.searchsorted(rows.indices0, a.indices0)


def schur_complement(m: MatrixLike, c: IndexSetLike) -> SymMatrix:
    """Schur complement M / M_C, indexed by the complement of C in ascending order.

    For empty C this is M itself. Raises SingularConditioningBlockError when
    M_C has an eigenvalue of magnitude <= DEFAULT_EPS_SPEC times its largest,
    so the block cannot be inverted reliably.
    """
    sym = _as_sym(m)
    (cset,) = _query_sets(sym.n, c=c)
    return _condition(sym, cset, _EMPTY_SET, DEFAULT_EPS_SPEC)[0]


def _bordered(arr: np.ndarray, e: IndexSet, exclude: IndexSet) -> np.ndarray:
    """arr on E, minus 1 on the diagonal of the excluded elements C ⊆ E."""
    ei = e.indices0
    out = arr.take(ei, 0).take(ei, 1)
    c = _positions(e, exclude)
    out[c, c] -= 1.0
    return out


def _condition(
    m: SymMatrix, include: IndexSet, exclude: IndexSet, eps_spec: float
) -> tuple[SymMatrix, IndexSet, np.ndarray]:
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
