"""Symmetric matrices, index sets, kernel validation, and the conditioning step:
the one Schur step (``_condition``) on an event's bordered block (``_bordered``),
which inverts that block once and keeps the inverse as its factor (``_Schur``):
a caller composes the whole Schur complement from it, or only the block or
the diagonal it reads.

A SymMatrix is decomposed at most once, and only when something reads its
spectrum: ``_eigh`` is the one eigh. A plain matrix is validated by Cholesky
where that settles it (``_cholesky_accepts``), so a kernel whose V nothing
reads, such as a conditional kernel, is never decomposed. Every matrix
composed from a known spectrum (K, L, I - K, K^{-1}) carries the mapped one,
so no derived matrix is decomposed again, and is composed as one symmetric
product B B^T, B = V diag(sqrt(w)) (``_compose``); the dual ensemble, the L
of I - K, is ``l_from_k(complement_marginal(k))``.

External indices are 1-based throughout: the ground set of an n x n kernel
is {1, ..., n}. Row/column 0 of the stored array corresponds to element 1.

A public call checks its index sets once, on entry, in ``_query_masks``,
whose one pass returns one int bitmask per set, bit i - 1 for element i.
Inside the library a validated set is that mask: the Schur step, the
bordered block, ``_positions`` and the oracle read masks, and a 0-based
position array comes from ``_indices0``, which walks a narrow mask's bits
and has numpy unpack a wide one. An IndexSet keeps only its members; no
other library module reads the attributes ``members`` or ``mask``.

Each input check has one home here. ``_checked_sets`` coerces a call's
sets, checks their ranges and names an overlap, in that order, for
``_query_masks``' branch for other input, ``Event`` and ``CiQuery``;
``_check_spectrum`` is the one range test of a kernel's spectrum, and
``_asymmetry`` the one measure of a matrix's asymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    IndexOutOfRangeError,
    InvalidToleranceError,
    KernelValidationError,
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
_UNIT_ROUNDOFF = float(np.finfo(float).eps) / 2.0  # u = 2^-53


def _is_bool(m) -> bool:
    """Whether m is a bool of Python or numpy, never an index (True == 1)."""
    return isinstance(m, bool) or getattr(m, "dtype", None) == bool


def _check_tolerance(name: str, value: float) -> float:
    """value as a Python float, if it is a finite non-negative int or float of
    Python or numpy (no bool)."""
    real = type(value) is float or (  # the plain float first: it is checked on every query
        isinstance(value, (int, np.integer, np.floating)) and not isinstance(value, bool)
    )
    # < inf is false for NaN too; a Python int compares exactly, so one can pass it and overflow.
    if not (real and 0.0 <= value < np.inf) or isinstance(value, int) and value > _FLOAT_MAX:
        raise InvalidToleranceError(f"{name} must be a finite non-negative number, got {value!r}")
    return float(value)


def _zero_threshold(scale: float, zero_tol: float, amplification: float = 1.0) -> float:
    """The absolute threshold at or below which an entry of a matrix whose
    largest entry is scale reads as zero: zero_tol times scale (zero_tol
    itself when scale is 0), times the amplification of rounding by the
    computation that produced the entry. Rejects a threshold that overflows."""
    zero_tol = _check_tolerance("zero_tol", zero_tol)  # a Python float: no numpy overflow warning
    threshold = (zero_tol * scale if scale > 0 else zero_tol) * amplification
    if not threshold < np.inf:  # false for NaN as well
        raise InvalidToleranceError(
            f"zero_tol {zero_tol!r} at scale {scale:.3e} gives a non-finite threshold"
        )
    return threshold


def _asymmetry(arr: np.ndarray, scale: float) -> float:
    """max|M - M^T| of a finite square array whose largest |entry| is scale,
    inf when it exceeds the largest float. A difference can overflow only
    where scale is above FLOAT_MAX / 2; there it is taken of the halves."""
    if scale > _FLOAT_MAX / 2.0:
        return 2.0 * _asymmetry(arr / 2.0, scale / 2.0)  # a Python float: inf, no warning
    return float(np.max(np.abs(arr - arr.T))) if arr.size else 0.0


class SymMatrix:
    """A dense real symmetric matrix, stored exactly symmetric and read-only.

    Construction checks the input for finiteness and near-symmetry
    (``max|M - M^T| <= DEFAULT_SYM_TOL * max|M|``, ``_asymmetry``), then stores
    ``(M + M^T) / 2``, or ``M / 2 + M^T / 2`` where an entry is above
    FLOAT_MAX / 2 and a sum could overflow, so a finite matrix is stored finite.
    The matrix keeps its one eigendecomposition M = V diag(w) V^T (w
    ascending, both read-only) once known: a matrix composed from a spectrum
    carries that one, any other gets it from its first ``_eigh``, which runs
    only when something reads w or V. It keeps its induced graph per
    zero_tol the same way (``graphs.induced_graph``).
    """

    __slots__ = ("array", "_spectrum", "_graphs")

    def __init__(self, values):
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged or non-numeric
            raise KernelValidationError(f"matrix is not a numeric array: {exc}") from exc
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise KernelValidationError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("matrix has non-finite entries")
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        residual = _asymmetry(arr, scale)
        if residual > DEFAULT_SYM_TOL * scale:
            raise AsymmetricMatrixError(
                f"matrix is not symmetric: max|M - M^T| = {residual:.3e} "
                f"exceeds {DEFAULT_SYM_TOL:.1e} * max|M| = {DEFAULT_SYM_TOL * scale:.3e}",
                residual=residual,
            )
        self._store((arr + arr.T) / 2.0 if scale <= _FLOAT_MAX / 2.0 else arr / 2.0 + arr.T / 2.0)

    @classmethod
    def _wrap(cls, arr: np.ndarray, exact: bool = False) -> "SymMatrix":
        # Internal path for computed results, with no asymmetry gate: products
        # and solves leave rounding asymmetry, so the result is symmetrized,
        # unless it is exactly symmetric by construction (exact, then kept as is).
        obj = cls.__new__(cls)
        obj._store(arr if exact else (arr + arr.T) / 2.0)
        return obj

    def _store(self, sym: np.ndarray) -> None:
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


# A mask with at most this many elements is walked bit by bit in Python; a
# wider one is unpacked by numpy, whose fixed cost a walk of this many bits
# about matches.
_WALK_BITS = 16


def _unpacked(mask: int, width: int) -> np.ndarray:
    """The first width bits (at least) of a mask as a bool array, bit k at index k."""
    raw = np.frombuffer(mask.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little").view(bool)


def _bits(mask: int) -> tuple[int, ...]:
    """The elements of a mask, bit i - 1 for element i: a walk over only its
    set bits, or numpy's unpacking where the mask is wide."""
    if mask.bit_count() > _WALK_BITS:
        return tuple((_indices0(mask) + 1).tolist())
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length())
        mask ^= low
    return tuple(members)


@dataclass(frozen=True)
class IndexSet:
    """An immutable set of 1-based ground-set indices, kept sorted.

    It keeps only its members and computes its bitmask when read. A member
    can be any size, so the mask is read only once the set lies in {1..n}.
    """

    members: tuple[int, ...]

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

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, item) -> bool:
        return not _is_bool(item) and item in self.members

    def __bool__(self) -> bool:
        return bool(self.members)

    @property
    def mask(self) -> int:
        """Bitmask with bit i-1 set for each member i."""
        m = 0
        for i in self.members:
            m |= 1 << (i - 1)
        return m

    @classmethod
    def _of_mask(cls, mask: int) -> "IndexSet":
        """The set of a mask's bits, which need no check."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "members", _bits(mask))
        return obj

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


def _checked_sets(names: Sequence[str], sets: Sequence, n: int | None = None) -> list[IndexSet]:
    """The named sets, each coerced by ``_as_index_set``, in the order given.
    Every set is coerced first, so a coercion error comes first; then, when
    n is given, each set's range is checked in order, so no huge mask is
    formed; then the first element two sets share is named. Sets of distinct
    members are disjoint when their sizes add up to the size of their union,
    so only an overlap is looked for element by element."""
    checked = [_as_index_set(s) for s in sets]
    if n is not None:
        for name, s in zip(names, checked):
            if s.members and s.members[-1] > n:
                raise IndexOutOfRangeError(
                    f"{name} contains {s.members[-1]} but the ground set is {{1..{n}}}"
                )
    members = [s.members for s in checked]
    if sum(map(len, members)) != len(set().union(*members)):
        owner: dict[int, str] = {}
        for name, s in zip(names, members):
            for i in s:
                first = owner.setdefault(i, name)
                if first != name:
                    raise OverlappingSetsError(f"{first} and {name} overlap on [{i}]")
    return checked


def _query_masks(n: int, sets: Sequence[IndexSetLike], names: tuple[str, ...]) -> list[int]:
    """The masks of one query's sets, in the order given, each checked to lie
    in {1..n} and pairwise disjoint. names names the last sets; any before
    them are parts, named part1, part2, ...

    Every public function that takes an index set, an Event or a CiQuery
    validates it here, once; the code behind it takes the masks as valid.
    One pass takes None, an IndexSet, a list or tuple of plain ints in
    {1..n}, or one plain int in {1..n} as its one-element set: each
    member's range is checked before its bit is set, and disjointness is a
    running AND of the masks. A set's type is checked before it is
    iterated, so a one-shot iterable is never consumed here.
    Any other set, range or overlap takes the branch below: ``_checked_sets``
    decides every error, and the checked sets then take the one pass.
    """
    masks, seen = [], 0
    for s in sets:
        if s is None:
            mask = 0
        elif isinstance(s, IndexSet):
            mask = s.mask if not s.members or s.members[-1] <= n else None
        elif type(s) is list or type(s) is tuple:
            mask = 0
            for m in s:
                if type(m) is not int or not 0 < m <= n:  # bool, numpy ints, floats, ...
                    mask = None
                    break
                mask |= 1 << (m - 1)
        elif type(s) is int:  # a plain int is its one-element set
            mask = 1 << (s - 1) if 0 < s <= n else None
        else:
            mask = None
        if mask is None or seen & mask:
            break
        seen |= mask
        masks.append(mask)
    else:
        return masks
    parts = [f"part{k}" for k in range(1, len(sets) - len(names) + 1)]
    # In range and disjoint once checked: one pass.
    return _query_masks(n, _checked_sets([*parts, *names], sets, n), names)


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
        if inc.members and exc.members and not set(inc.members).isdisjoint(exc.members):
            _checked_sets(("include", "exclude"), (inc, exc))  # names the overlap


@dataclass(frozen=True, eq=False)
class _Kernel:
    """A validated kernel: a symmetric matrix and its eigendecomposition
    matrix = V diag(w) V^T (w ascending, both read-only), the one it was
    composed from or validated by, else the one ``_eigh`` computes when w or
    V is first read; every kernel derived from it is a map of w composed
    with V."""

    matrix: SymMatrix

    @property
    def w(self) -> np.ndarray:
        return self._spectrum[0]

    @property
    def vecs(self) -> np.ndarray:
        return self._spectrum[1]

    @property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        if self.matrix._spectrum is None:
            _eigh(self.matrix)
        return self.matrix._spectrum

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


def _check_spectrum(w: np.ndarray, marginal: bool) -> None:
    """Raise SpectrumOutOfRangeError unless every eigenvalue in w lies in
    (eps, 1 - eps) for a marginal kernel, or above eps for an ensemble
    kernel, eps = DEFAULT_EPS_SPEC; a marginal kernel's largest is tested
    first. The one range test of a kernel's spectrum."""
    if not w.size:
        return
    eps, lo = DEFAULT_EPS_SPEC, float(w.min())
    if marginal and ((hi := float(w.max())) >= 1.0 - eps or lo <= eps):
        value, end = (hi, "largest") if hi >= 1.0 - eps else (lo, "smallest")
        need = f"marginal kernel needs eigenvalues in ({eps:.1e}, 1 - {eps:.1e}); {end} is"
    elif not marginal and lo <= eps:
        value, need = lo, "ensemble kernel must be positive definite; smallest eigenvalue is"
    else:
        return
    raise SpectrumOutOfRangeError(f"{need} {value:.6e}", eigenvalue=value)


def _rounding_band(sym: SymMatrix, marginal: bool) -> float:
    """delta = 4 n u s: how far rounding can move the smallest eigenvalue a
    Cholesky or an eigh of M sees, s = max|M|, at least 1 for a marginal
    kernel, whose range ends at 1."""
    scale = sym.max_abs()
    return 4.0 * sym.n * _UNIT_ROUNDOFF * (max(scale, 1.0) if marginal else scale)


def _cholesky_accepts(sym: SymMatrix, marginal: bool) -> bool:
    """Whether Cholesky factors M - (eps + delta) I and, for a marginal kernel,
    (1 - eps - delta) I - M (eps = DEFAULT_EPS_SPEC, delta the rounding band),
    which puts M's spectrum inside the eigen test's range with delta to spare,
    so a matrix accepted here passes the eigen test when it is decomposed.
    A failure settles nothing: the eigen test decides."""
    arr, n = sym.array, sym.n
    margin = DEFAULT_EPS_SPEC + _rounding_band(sym, marginal)
    shifted = arr.copy()
    shifted.flat[:: n + 1] -= margin
    try:
        np.linalg.cholesky(shifted)
        if marginal:
            np.negative(arr, out=shifted)
            shifted.flat[:: n + 1] += 1.0 - margin
            np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _validated(m: MatrixLike, marginal: bool) -> _Kernel:
    """m as the kind of kernel marginal names, its spectrum checked: a matrix
    that carries its spectrum on it; any other is accepted without a
    decomposition when Cholesky shows its spectrum well inside the range,
    and otherwise decomposed and checked, so the matrices accepted are the
    same."""
    sym = _as_sym(m)
    if sym._spectrum is not None or not _cholesky_accepts(sym, marginal):
        _check_spectrum(_eigh(sym).w, marginal)
    return MarginalKernel(sym) if marginal else EnsembleKernel(sym)


def validate_marginal(m: MatrixLike) -> MarginalKernel:
    """Check that m is symmetric with all eigenvalues in (eps, 1 - eps),
    eps = DEFAULT_EPS_SPEC.

    The strict margin keeps every complement, conditional, and inverse
    kernel derived later well defined.
    """
    return _validated(m, marginal=True)


def validate_ensemble(m: MatrixLike) -> EnsembleKernel:
    """Check that m is symmetric positive definite (eigenvalues > DEFAULT_EPS_SPEC)."""
    return _validated(m, marginal=False)


# The spectral core: every kernel derived from K = V diag(lam) V^T shares
# its eigenvectors (Kulesza & Taskar 2012, section 2.2). L has spectrum
# lam / (1 - lam), I - K 1 - lam and K^{-1} 1 / lam, so each is composed from
# the (w, V) its input carries, and carries the mapped (w, V) in turn. The
# dual ensemble K^{-1} - I, of spectrum 1 / lam - 1, is the L of I - K.


def _eigh(m: MatrixLike) -> _Kernel:
    """m with its eigendecomposition: the one its SymMatrix carries, else one
    eigh, which the SymMatrix then keeps. A plain array or list is a new
    SymMatrix, so it is decomposed on every call. The one place an eigh runs."""
    sym = _as_sym(m)
    if sym._spectrum is None:
        try:
            sym._carry(*np.linalg.eigh(sym.array))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return _Kernel(sym)


def _compose(vecs: np.ndarray, w: np.ndarray) -> SymMatrix:
    """V diag(w) V^T as B B^T, B = V diag(sqrt(w)), carrying (w, V). NumPy
    runs a product of a matrix with its own transpose as one syrk, half the
    flops of a general product, and mirrors one triangle, so the result is
    exactly symmetric. A decreasing map of an ascending spectrum leaves w
    descending; the reversed views are carried then. Every spectrum composed
    is positive: a non-finite w means the spectrum map hit a pole, and a w
    <= 0 has no square root."""
    what = "a kernel derived from the spectrum has"
    if not np.all(np.isfinite(w)):
        raise NumericalFailureError(f"{what} non-finite eigenvalues")
    if not np.all(w > 0.0):
        raise NumericalFailureError(f"{what} non-positive eigenvalues")
    b = vecs * np.sqrt(w)
    sym = SymMatrix._wrap(b @ b.T, exact=True)
    if w.size and w[0] > w[-1]:
        w, vecs = w[::-1], vecs[:, ::-1]
    return sym._carry(w, vecs)


def _inverse(k: _Kernel) -> SymMatrix:
    """The inverse V diag(1/w) V^T of a positive definite kernel."""
    return _compose(k.vecs, 1.0 / k.w)


def k_from_l(l: EnsembleKernel) -> MarginalKernel:
    """Marginal kernel of the L-ensemble: K = (L + I)^{-1} L = I - (L + I)^{-1}."""
    lam = l.w / (1.0 + l.w)
    _check_spectrum(lam, marginal=True)
    return MarginalKernel(_compose(l.vecs, lam))


def l_from_k(k: MarginalKernel) -> EnsembleKernel:
    """L-ensemble kernel of the marginal kernel: L = (I - K)^{-1} K."""
    ell = k.w / (1.0 - k.w)
    _check_spectrum(ell, marginal=False)
    return EnsembleKernel(_compose(k.vecs, ell))


def complement_marginal(k: MarginalKernel) -> MarginalKernel:
    """Marginal kernel I - K of the complement process {1..n} \\ Y."""
    w = 1.0 - k.w[::-1]
    _check_spectrum(w, marginal=True)
    # By subtraction, so that exact zeros stay exact; I - K is as symmetric as K.
    comp = SymMatrix._wrap(np.eye(k.n) - k.array, exact=True)
    return MarginalKernel(comp._carry(w, k.vecs[:, ::-1]))


def _indices0(mask: int) -> np.ndarray:
    """0-based positions into the stored array of a mask's elements, ascending."""
    if mask.bit_count() > _WALK_BITS:
        return np.flatnonzero(_unpacked(mask, mask.bit_length()))
    return np.array([i - 1 for i in _bits(mask)], dtype=np.intp)


def _positions(rows: int, a: int) -> np.ndarray:
    """0-based positions within the mask rows of the elements of the mask
    a ⊆ rows: for each element i of a, the count of rows' bits below bit i - 1.
    A wide a is read off rows' positions instead: where a's bits are set there."""
    if a.bit_count() > _WALK_BITS:
        return np.flatnonzero(_unpacked(a, rows.bit_length())[_indices0(rows)])
    return np.array([(rows & ((1 << (i - 1)) - 1)).bit_count() for i in _bits(a)], dtype=np.intp)


def schur_complement(m: MatrixLike, c: IndexSetLike) -> SymMatrix:
    """Schur complement M / M_C, indexed by the complement of C in ascending order.

    For empty C this is M itself. Raises SingularConditioningBlockError when
    M_C has an eigenvalue of magnitude <= DEFAULT_EPS_SPEC times its largest,
    so the block cannot be inverted reliably.
    """
    sym = _as_sym(m)
    (cmask,) = _query_masks(sym.n, (c,), ("c",))
    return _condition(sym, cmask, 0).full()


def _bordered(arr: np.ndarray, e: int, exclude: int) -> np.ndarray:
    """arr on the mask E, minus 1 on the diagonal of the excluded elements,
    the mask C ⊆ E."""
    ei = _indices0(e)
    out = arr.take(ei, 0).take(ei, 1)
    c = _positions(e, exclude)
    out[c, c] -= 1.0
    return out


class _Schur:
    """One Schur step S = M_RR - M_RE G M_ER of m on E, G the inverse of the
    bordered E block, kept as that factor: each reader composes only the
    entries it reads. rest is the mask of R and w the E block's eigenvalues,
    ascending; for empty E, S is m itself."""

    __slots__ = ("m", "rest", "w", "_e0", "_inv")

    def __init__(
        self, m: SymMatrix, rest: int, w: np.ndarray, e0: np.ndarray, inv: "np.ndarray | None"
    ):
        self.m, self.rest, self.w, self._e0, self._inv = m, rest, w, e0, inv

    def full(self) -> SymMatrix:
        """S on all of R, rows and columns in ascending order."""
        if self._inv is None:
            return self.m
        ri = _indices0(self.rest)
        rows = self.m.array.take(ri, 0)
        mre = rows.take(self._e0, 1)
        return SymMatrix._wrap(rows.take(ri, 1) - (mre @ self._inv) @ mre.T)

    def block(self, a: int, b: int) -> np.ndarray:
        """S on the rows of the mask a and the columns of the mask b, both ⊆ R."""
        ai, bi = _indices0(a), _indices0(b)
        rows = self.m.array.take(ai, 0)
        blk = rows.take(bi, 1)
        if self._inv is None:
            return blk
        mbe = self.m.array.take(bi, 0).take(self._e0, 1)
        return blk - (rows.take(self._e0, 1) @ self._inv) @ mbe.T

    def diagonal(self) -> np.ndarray:
        """S's diagonal on R, in ascending order: one row product per element."""
        ri = _indices0(self.rest)
        diag = self.m.array.diagonal()
        if self._inv is None:
            return diag
        mre = self.m.array.take(self._e0, 1).take(ri, 0)
        return diag.take(ri) - np.einsum("ij,ij->i", mre @ self._inv, mre)


def _condition(m: SymMatrix, include: int, exclude: int) -> _Schur:
    """One Schur step on E = D ∪ C (the masks include and exclude, checked
    against m) of m with 1 subtracted on C's diagonal, factored once (see
    _Schur). On K it is K/K_D for D alone, I - (I-K)/(I-K)_C for C alone,
    and mixed in one step. The E block is tested first: one whose
    eigenvalues span more than 1 / DEFAULT_EPS_SPEC in magnitude raises.
    """
    e = include | exclude
    rest = ((1 << m.n) - 1) ^ e
    if not e:
        return _Schur(m, rest, np.empty(0), None, None)
    me = _bordered(m.array, e, exclude)
    w = np.linalg.eigvalsh(me)
    aw = np.abs(w)
    if float(aw.min()) <= DEFAULT_EPS_SPEC * float(aw.max()):
        raise SingularConditioningBlockError(
            f"conditioning block for C={list(_bits(e))} is numerically singular "
            f"(|eigenvalues| span {aw.min():.3e} .. {aw.max():.3e})",
            det_estimate=float(np.prod(w)),
        )
    return _Schur(m, rest, w, _indices0(e), np.linalg.inv(me))
