import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppci import (
    AsymmetricMatrixError,
    CiQuery,
    DppModel,
    Event,
    IndexOutOfRangeError,
    IndexSet,
    KernelValidationError,
    MarginalKernel,
    NonFiniteError,
    NumericalFailureError,
    OverlappingSetsError,
    SingularConditioningBlockError,
    SpectrumOutOfRangeError,
    SymMatrix,
    build_table,
    check_conditional_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    complement_marginal,
    conditional_kernel,
    event_prob,
    exact_prob,
    graph_certified_ci,
    graph_certified_multiway_ci,
    inclusion_prob,
    induced_graph,
    k_from_l,
    l_from_k,
    mixed_prob,
    multiway_independence,
    process_independence,
    schur_complement,
    separates,
    separation_zero_block_report,
    validate_ensemble,
    validate_marginal,
)
from dppci import kernels
from dppci.kernels import (
    _EMPTY_SET,
    _UNIT_ROUNDOFF,
    DEFAULT_EPS_SPEC,
    _as_index_set,
    _bits,
    _compose,
    _eigh,
    _indices0,
    _inverse,
    _positions,
    _query_masks,
    _rounding_band,
)
from differential import RAW_INPUTS
from generators import (
    chain_edges,
    complement,
    ensemble_from_edges,
    indices0,
    random_ensemble_matrix,
    random_marginal_matrix,
    random_orthogonal,
)

DEMO_K = np.array([
    [0.05, 0.0, 0.1],
    [0.0, 0.8, 0.2],
    [0.1, 0.2, 0.6],
])


class TestSymMatrix:
    def test_stores_exact_symmetric_average(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-13, 3.0]])
        m = SymMatrix(a)
        np.testing.assert_array_equal(m.array, m.array.T)
        assert m.array[0, 1] == pytest.approx(2.0, abs=1e-12)

    def test_read_only(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.array[0, 0] = 5.0

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 2.0], [2.5, 3.0]])
        with pytest.raises(AsymmetricMatrixError) as exc:
            SymMatrix(a)
        assert exc.value.residual == pytest.approx(0.5)

    def test_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        for shape in [(2, 3), (3,), (2, 2, 2), (0,)]:
            with pytest.raises(KernelValidationError, match=r"^expected a square matrix, got"):
                SymMatrix(np.zeros(shape))
        for bad in [[[1.0, 2.0], [3.0]], [[1.0], "ab"], [["x"]], [[{}]]]:  # ragged, non-numeric
            with pytest.raises(KernelValidationError, match=r"^matrix is not a numeric array: "):
                SymMatrix(bad)
        with pytest.raises(KernelValidationError, match=r"got shape \(3,\)$"):
            validate_marginal([0.1, 0.2, 0.3])

    def test_entries_near_the_largest_float_stored_finite(self):
        """a + b overflows where an entry is above FLOAT_MAX / 2; such a
        finite matrix is stored finite, and so is its spectrum."""
        for rows in ([[1e308, 0.0], [0.0, 1e308]], [[1.0, 9e307], [9e307, 1.0]]):
            np.testing.assert_array_equal(SymMatrix(rows).array, rows)
        np.testing.assert_array_equal(validate_ensemble([[1e308, 0.0], [0.0, 1e308]]).w, [1e308] * 2)

    def test_asymmetry_beyond_the_largest_float_rejected(self):
        with pytest.raises(AsymmetricMatrixError, match=r"max\|M - M\^T\| = inf exceeds") as exc:
            SymMatrix([[1.0, 1e308], [-1e308, 1.0]])
        assert exc.value.residual == np.inf

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([1e-310, 1.0, 2.0**1022]))
    def test_stored_bits_below_half_the_largest_float(self, n, seed, scale):
        """Below FLOAT_MAX / 2 the stored matrix is (M + M^T) / 2 to the bit,
        odd subnormal entries too."""
        rng = np.random.default_rng(seed)
        s = rng.uniform(-0.5, 0.5, size=(n, n)) * scale
        m = (s + s.T) * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, size=(n, n)))
        np.testing.assert_array_equal(SymMatrix(m).array, (m + m.T) / 2.0)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetrized_input_always_accepted(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        m = SymMatrix(a + a.T)
        np.testing.assert_array_equal(m.array, m.array.T)
        assert m.n == n


class TestIndexSet:
    def test_sorted_and_deduplicated(self):
        assert IndexSet([3, 1, 3, 2]).members == (1, 2, 3)

    def test_of(self):
        assert IndexSet([2, 5]).members == (2, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(IndexOutOfRangeError):
            IndexSet([0, 1])

    def test_mask_uses_bit_i_minus_1(self):
        assert IndexSet([1]).mask == 1
        assert IndexSet([2]).mask == 2
        assert IndexSet([1, 3]).mask == 5

    def test_keeps_only_its_members(self):
        """Reading the mask stores nothing: a set holds its members alone,
        and its equality and hash are its members'."""
        for s in (IndexSet([4, 1]), IndexSet._of_mask(0b1001), _EMPTY_SET):
            before = hash(s)
            assert s.mask == s.mask == sum(1 << (i - 1) for i in s.members)
            assert vars(s) == {"members": s.members}
            assert hash(s) == before == hash(IndexSet(s.members))
            assert s == IndexSet(list(s.members)) and s != IndexSet([*s.members, 9])

    @pytest.mark.parametrize("item, inside", [(1, True), (np.int64(1), True),
                                              (True, False), (np.True_, False)],
                             ids=["int", "np-int", "true", "np-true"])
    def test_membership_follows_the_constructor(self, item, inside):
        """A bool is no index to the constructor, so no set contains one."""
        assert (item in IndexSet([1, 2])) is inside

    def test_as_index_set_coercions(self):
        assert _as_index_set(None) is _EMPTY_SET
        assert _as_index_set(3).members == (3,)
        assert _as_index_set([2, 1]).members == (1, 2)
        s = IndexSet([1])
        assert _as_index_set(s) is s

    @given(st.lists(st.integers(min_value=1, max_value=30)))
    def test_members_invariant(self, raw):
        s = IndexSet(raw)
        assert list(s.members) == sorted(set(raw))

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), float("-inf"), None, 1.5, "2",
         True, False, np.True_, np.array(True)],
        ids=["nan", "inf", "-inf", "none", "fraction", "str",
             "true", "false", "np-true", "0-d-bool-array"],
    )
    def test_non_integer_element_is_typed_error(self, bad):
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            IndexSet([bad])
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            _as_index_set(bad if bad is not None else [None])
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            inclusion_prob(DppModel.from_marginal(DEMO_K), [bad])

    @pytest.mark.parametrize("scalar", [3, 3.0, np.int64(3), np.float64(3.0), np.array(3)],
                             ids=["int", "float", "np-int", "np-float", "0-d-array"])
    def test_scalar_is_one_element_set(self, scalar):
        assert _as_index_set(scalar) == _as_index_set([scalar]) == IndexSet([3])
        assert type(_as_index_set(scalar).members[0]) is int

    @given(
        st.lists(st.integers(min_value=1, max_value=30)),
        st.lists(st.integers(min_value=1, max_value=30)),
        st.integers(min_value=0, max_value=10),
    )
    def test_derived_sets_match_checked_constructor(self, s, t, extra):
        n = max(s, default=0) + extra
        """The sets of masks the library derives, a union, a complement in
        {1..n} and the mask itself, are the sets the constructor builds."""
        a = IndexSet(s)
        masks = [a.mask | IndexSet(t).mask, ((1 << n) - 1) ^ a.mask, a.mask]
        derived = [IndexSet._of_mask(m) for m in masks]
        assert derived[0] == IndexSet(s + t)
        assert derived[1] == IndexSet(set(range(1, n + 1)) - set(s))
        assert derived[2] == a
        assert [d.members for d in derived] == [_bits(m) for m in masks]
        assert [d.mask for d in derived] == masks
        assert all(type(i) is int for d in derived for i in d)

    def test_wide_masks_map_as_narrow_ones(self):
        """A mask of more than _WALK_BITS elements is unpacked by numpy and a
        narrower one walked: its elements, their positions in the stored
        array and within a wider mask are the same either way."""
        rng = np.random.default_rng(26)
        for n in (1, 8, 16, 17, 64, 65, 300):
            for density in (0.05, 0.5, 1.0):
                rows = [i for i in range(1, n + 1) if rng.random() < max(density, 0.7)]
                a = [i for i in rows if rng.random() < density]
                for elements in (rows, a, a[:16], a[:17]):
                    mask = sum(1 << (i - 1) for i in elements)
                    assert _bits(mask) == tuple(elements)
                    assert all(type(i) is int for i in _bits(mask))
                    indices = _indices0(mask)
                    np.testing.assert_array_equal(indices, np.array(elements, dtype=int) - 1)
                    assert indices.dtype == np.intp
                    rmask = sum(1 << (i - 1) for i in rows)
                    expected = [rows.index(i) for i in elements]
                    np.testing.assert_array_equal(_positions(rmask, mask), expected)
                    assert _positions(rmask, mask).dtype == np.intp


class TestEvent:
    def test_disjointness_enforced(self):
        with pytest.raises(OverlappingSetsError):
            Event(include=[1, 2], exclude=[2])


def _outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of the DppError it raises."""
    try:
        return "ok", fn(*args, **kwargs)
    except (IndexOutOfRangeError, OverlappingSetsError) as exc:
        return type(exc).__name__, str(exc)


def _typed(outcome):
    """An outcome with each returned set's type and its members' types spelled out."""
    kind, value = outcome
    if kind != "ok":
        return outcome
    return kind, [(type(s), [(type(i), i) for i in s.members]) for s in value]


def _trusted(members):
    """The IndexSet of members as given, with no check."""
    s = object.__new__(IndexSet)
    object.__setattr__(s, "members", members)
    return s


def _reference_set(value):
    """Coercion with no fast path: None is empty, a value that cannot be
    iterated is the one-element set of it, an IndexSet is itself, and every
    other member goes through the per-element check."""
    if value is None:
        return _trusted(())
    if isinstance(value, IndexSet):
        return value
    try:
        members = tuple(iter(value))
    except TypeError:
        members = (value,)
    return _trusted(tuple(sorted(set(IndexSet._cleaned(members)))))


def _reference_overlap(sets):
    """Name the first element two of the named sets share, by one dict pass."""
    owner = {}
    for name, s in sets.items():
        for i in s:
            first = owner.setdefault(i, name)
            if first != name:
                raise OverlappingSetsError(f"{first} and {name} overlap on [{i}]")


def _reference_query_sets(n, **named):
    """Set validation as one dict pass: coerce, check ranges, then name the
    first element two sets share."""
    sets = {name: _reference_set(s) for name, s in named.items()}
    for name, s in sets.items():
        outside = [i for i in s if i > n]
        if outside:
            raise IndexOutOfRangeError(
                f"{name} contains {max(outside)} but the ground set is {{1..{n}}}"
            )
    _reference_overlap(sets)
    return list(sets.values())


def _reference_event(include, exclude):
    sets = {"include": _reference_set(include), "exclude": _reference_set(exclude)}
    _reference_overlap(sets)
    return list(sets.values())


# A member may be huge, so a mask taken before the range check fails loudly.
_MEMBER = st.one_of(st.integers(min_value=-1, max_value=15), st.sampled_from([10**12, 2**52]))
_MEMBERS = st.lists(_MEMBER, max_size=6)
# Every form a caller may pass a set in.
_RAW_SET = st.one_of(
    st.none(),
    _MEMBERS,
    _MEMBERS.map(tuple),
    st.builds(range, st.integers(min_value=-1, max_value=15), st.integers(min_value=-1, max_value=15)),
    _MEMBERS.map(lambda m: np.array(m, dtype=np.int64)),
    _MEMBERS.map(lambda m: IndexSet([i for i in m if i >= 1])),
    _MEMBER,
)


def _masks(outcome):
    """An outcome with each returned mask's type spelled out."""
    kind, value = outcome
    return outcome if kind != "ok" else (kind, [(type(m), m) for m in value])


def _reference_masks(n, sets, names):
    """The reference's outcome on a query's sets, named as _query_masks names
    them, with the masks of the sets it returns."""
    parts = [f"part{k}" for k in range(1, len(sets) - len(names) + 1)]
    kind, value = _outcome(_reference_query_sets, n, **dict(zip([*parts, *names], sets)))
    return (kind, value) if kind != "ok" else (kind, [s.mask for s in value])


class TestQuerySetsMatchReference:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=1, max_value=12), st.lists(_RAW_SET, min_size=1, max_size=5),
           st.integers(min_value=0, max_value=5))
    def test_same_sets_and_errors(self, n, raw, named_count):
        """_query_masks answers as the reference on every form of set: the
        same masks, as ints, or the same error, whether the one pass or the
        branch for other input decides."""
        names = tuple(f"set{k}" for k in range(min(named_count, len(raw))))
        assert _masks(_outcome(_query_masks, n, raw, names)) == _masks(
            _reference_masks(n, raw, names)
        )

    @settings(deadline=None, max_examples=300)
    @given(st.integers(min_value=1, max_value=12), _RAW_SET, _RAW_SET, _RAW_SET, _RAW_SET)
    def test_event_sets_match_reference(self, n, include, exclude, a, b):
        """An Event, which has no n, coerces and checks its two sets as the
        reference does; a query then takes them as the raw sets. A CiQuery
        of a and b given that event coerces and checks its four sets as the
        reference does."""
        built = _outcome(Event, include, exclude)
        as_sets = built if built[0] != "ok" else ("ok", [built[1].include, built[1].exclude])
        assert _typed(as_sets) == _typed(_outcome(_reference_event, include, exclude))
        if built[0] == "ok":
            ev = built[1]
            names = ("include", "exclude")
            assert _masks(_outcome(_query_masks, n, (ev.include, ev.exclude), names)) == _masks(
                _reference_masks(n, (include, exclude), names)
            )
        query = _outcome(CiQuery, a, b, include, exclude)
        if query[0] == "ok":
            q = query[1]
            query = ("ok", [q.a, q.b, q.given.include, q.given.exclude])
        assert _typed(query) == _typed(_outcome(_reference_query, a, b, include, exclude))

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(min_value=-3, max_value=2**52), max_size=8))
    def test_plain_ints_match_per_element_path(self, raw):
        plain = _outcome(IndexSet, raw)
        assert plain == _outcome(IndexSet, [np.int64(i) for i in raw])
        assert plain == _outcome(IndexSet, [float(i) for i in raw])
        if plain[0] == "ok":
            assert all(type(i) is int for i in plain[1])


def _reference_query(a, b, given_in, given_out):
    """What CiQuery raises or holds, by the reference: all four sets coerced,
    then the first element two of them share named."""
    sets = {
        "a": _reference_set(a), "b": _reference_set(b),
        "given_in": _reference_set(given_in), "given_out": _reference_set(given_out),
    }
    _reference_overlap(sets)
    return list(sets.values())


_CHAIN = DppModel.from_ensemble(ensemble_from_edges(np.random.default_rng(24), 6, chain_edges(6)))
_CHAIN_TABLE = build_table(_CHAIN)


def _kernel_bits(m):
    """A matrix's entries, comparable across calls."""
    return m.array.tolist()


# Each public function that takes an index set, an Event or a CiQuery, as a
# call on the four raw sets a, b, c, d of one query, with the names
# _query_masks gives its sets and which raw set each name takes (None: the
# set is not given). Every answer is made comparable across calls.
_ROUTED = {
    "graph_certified_ci": (
        lambda a, b, c, d: graph_certified_ci(_CHAIN, a, b, c, d),
        {"part1": 0, "part2": 1, "c": 2, "d": 3}),
    "graph_certified_multiway_ci": (
        lambda a, b, c, d: graph_certified_multiway_ci(_CHAIN, [a, b, c], d),
        {"part1": 0, "part2": 1, "part3": 2, "c": 3, "d": None}),
    "separates": (
        lambda a, b, c, d: separates(induced_graph(_CHAIN.ensemble), a, b, c),
        {"a": 0, "b": 1, "c": 2}),
    "process_independence": (
        lambda a, b, c, d: process_independence(_CHAIN_TABLE, a, b, Event(d, c)),
        {"part1": 0, "part2": 1, "given_in": 3, "given_out": 2}),
    "multiway_independence": (
        lambda a, b, c, d: multiway_independence(_CHAIN_TABLE, [a, b, c], Event(d)),
        {"part1": 0, "part2": 1, "part3": 2, "given_in": 3, "given_out": None}),
    "event_prob": (
        lambda a, b, c, d: event_prob(_CHAIN_TABLE, Event(a, b)), {"include": 0, "exclude": 1}),
    "prob_of": (lambda a, b, c, d: _CHAIN_TABLE.prob_of(a), {"a": 0}),
    "check_conditional_independence": (
        lambda a, b, c, d: check_conditional_independence(
            _CHAIN, CiQuery(a, b, given_in=d, given_out=c)
        ),
        {"a": 0, "b": 1, "given_in": 3, "given_out": 2}),
    "check_pairwise_given_rest_included": (
        lambda a, b, c, d: check_pairwise_given_rest_included(_CHAIN, a, b), {"i": 0, "j": 1}),
    "check_pairwise_given_rest_excluded": (
        lambda a, b, c, d: check_pairwise_given_rest_excluded(_CHAIN, a, b), {"i": 0, "j": 1}),
    "inclusion_prob": (lambda a, b, c, d: inclusion_prob(_CHAIN, a), {"a": 0}),
    "exact_prob": (lambda a, b, c, d: exact_prob(_CHAIN, a), {"a": 0}),
    "mixed_prob": (
        lambda a, b, c, d: mixed_prob(_CHAIN, Event(a, b)), {"include": 0, "exclude": 1}),
    "conditional_kernel": (
        lambda a, b, c, d: (lambda ck: (ck.labels, _kernel_bits(ck)))(
            conditional_kernel(_CHAIN, Event(a, b))
        ),
        {"include": 0, "exclude": 1}),
    "schur_complement": (
        lambda a, b, c, d: _kernel_bits(schur_complement(_CHAIN.ensemble, a)), {"c": 0}),
    "separation_zero_block_report": (
        lambda a, b, c, d: separation_zero_block_report(_CHAIN.ensemble, a, b, c),
        {"a": 0, "b": 1, "c": 2}),
}
# The functions that take one set, or one Event, which coerces its own two
# sets before the query sees them.
_ONE_SET_OR_EVENT = {
    "prob_of", "event_prob", "inclusion_prob", "exact_prob", "mixed_prob",
    "conditional_kernel", "schur_complement",
}


def _routed_reference(name, *raw):
    """What a routed function answers by the reference coercion: the error
    its Event or its CiQuery raises, else the error of its query, else its
    answer on the reference's sets as plain sorted lists."""
    call, names = _ROUTED[name]
    named = {key: None if k is None else raw[k] for key, k in names.items()}
    try:
        if name == "check_conditional_independence":  # the CiQuery is built first
            _reference_query(*named.values())
        elif "given_in" in named or "include" in named:  # the Event is built first
            _reference_event(*list(named.values())[-2:])
        sets = _reference_query_sets(_CHAIN.n, **named)
    except (IndexOutOfRangeError, OverlappingSetsError) as exc:
        return type(exc).__name__, str(exc)
    plain = [[], [], [], []]
    for k, s in zip(names.values(), sets):
        if k is not None:
            plain[k] = list(s.members)
    return _outcome(call, *plain)


class TestQueryMasksMatchGeneralPath:
    """_query_masks takes plain sets in one pass and any other input in its
    branch for other types: the masks, errors and verdicts of every public
    function that takes a set are the reference's."""

    def test_plain_sets_never_reach_the_general_path(self, monkeypatch):
        """Every valid None, IndexSet, list or tuple of plain ints, members 1
        and n included, is decided in the one pass, which coerces nothing."""

        def coerce(value):
            raise AssertionError(f"set coerced: {value!r}")

        monkeypatch.setattr(kernels, "_as_index_set", coerce)
        rng = np.random.default_rng(24)
        for n in range(1, 13):
            for _ in range(40):
                labels = rng.integers(0, 4, size=n)
                labels[-1] = rng.integers(1, 4)  # element n is in a list, a tuple or an IndexSet
                sets = [[int(i) + 1 for i in np.flatnonzero(labels == g)] for g in (1, 2, 3)]
                forms = [sets[0], tuple(sets[1]), IndexSet(sets[2]), None]
                masks = [sum(1 << (i - 1) for i in s) for s in sets] + [0]
                assert _query_masks(n, forms, ("c",)) == masks
            assert _query_masks(n, [[n, 1, n]], ()) == [1 | 1 << (n - 1)]  # repeats, unsorted

    def test_plain_ints_never_reach_the_general_path(self, monkeypatch):
        """A plain int in {1..n} is its one-element set in the one pass, so a
        pairwise check on two ints coerces nothing; a bool, a numpy int, a
        float or an int out of range still takes the branch for other input."""

        def coerce(value):
            raise AssertionError(f"set coerced: {value!r}")

        pairwise = (check_pairwise_given_rest_included, check_pairwise_given_rest_excluded)
        expected = [check(_CHAIN, [1], [3]) for check in pairwise]
        monkeypatch.setattr(kernels, "_as_index_set", coerce)
        assert [check(_CHAIN, 1, 3) for check in pairwise] == expected
        assert _query_masks(6, [1, 6], ("i", "j")) == [1, 32]
        for other in (True, np.int64(1), 1.0, 0, 7, -1):
            with pytest.raises(AssertionError, match="set coerced"):
                _query_masks(6, [other, 3], ("i", "j"))

    @pytest.mark.parametrize("name", sorted(_ROUTED))
    @pytest.mark.parametrize(
        "a, b, c, d",
        list(RAW_INPUTS.values()),
        ids=list(RAW_INPUTS),
    )
    def test_routed_functions_answer_as_the_reference(self, name, a, b, c, d):
        assert _outcome(_ROUTED[name][0], a, b, c, d) == _routed_reference(name, a, b, c, d)

    @pytest.mark.parametrize("name", sorted(set(_ROUTED) - _ONE_SET_OR_EVENT))
    def test_later_coercion_error_wins_over_earlier_range_error(self, name):
        with pytest.raises(IndexOutOfRangeError, match=r"^index 1\.5 is not an integer$"):
            _ROUTED[name][0]([99], [1.5], [], [])

    def test_out_of_range_event_sets(self):
        for table_call in (
            lambda: event_prob(_CHAIN_TABLE, Event([7], [1])),
            lambda: event_prob(_CHAIN_TABLE, Event([1], IndexSet([2**52]))),
            lambda: process_independence(_CHAIN_TABLE, [1], [2], Event([9])),
            lambda: multiway_independence(_CHAIN_TABLE, [[1], [2]], Event(None, [10**12])),
        ):
            with pytest.raises(IndexOutOfRangeError, match="but the ground set is {1..6}$"):
                table_call()

    @pytest.mark.parametrize(
        "a, b, c, d",
        [([1, 2], [3], [], []), ([1], [4, 5], [3], [6]), ([2], [3], [], [5])],
        ids=["adjacent", "separated", "given-d"],
    )
    def test_generator_sets_answer_as_lists(self, a, b, c, d):
        def gen(s):
            return (i for i in s)

        assert graph_certified_ci(_CHAIN, gen(a), gen(b), gen(c), gen(d)) is graph_certified_ci(
            _CHAIN, a, b, c, d
        )
        assert process_independence(_CHAIN_TABLE, gen(a), gen(b), Event(d, c)) == (
            process_independence(_CHAIN_TABLE, a, b, Event(d, c))
        )
        assert multiway_independence(_CHAIN_TABLE, gen([gen(a), b]), Event(d, c)) == (
            multiway_independence(_CHAIN_TABLE, [a, b], Event(d, c))
        )
        assert graph_certified_multiway_ci(_CHAIN, [a, gen(b)], gen(c)) is (
            graph_certified_multiway_ci(_CHAIN, [a, b], c)
        )


class TestValidateMarginal:
    def test_demo_matrix_is_valid(self):
        k = validate_marginal(DEMO_K)
        assert k.n == 3

    def test_identity_rejected_at_upper_bound(self):
        with pytest.raises(SpectrumOutOfRangeError) as exc:
            validate_marginal(np.eye(3))
        assert exc.value.eigenvalue == pytest.approx(1.0)

    def test_eigenvalue_above_one_reported(self):
        with pytest.raises(SpectrumOutOfRangeError) as exc:
            validate_marginal([[0.5, 0.6], [0.6, 0.5]])
        assert exc.value.eigenvalue == pytest.approx(1.1)

    def test_negative_side(self):
        with pytest.raises(SpectrumOutOfRangeError) as exc:
            validate_marginal(np.diag([-0.1, 0.5]))
        assert exc.value.eigenvalue == pytest.approx(-0.1)
        with pytest.raises(SpectrumOutOfRangeError):
            validate_marginal(np.zeros((2, 2)))


class TestValidateEnsemble:
    def test_identity_valid(self):
        assert validate_ensemble(np.eye(3)).n == 3

    def test_rank_one_rejected(self):
        with pytest.raises(SpectrumOutOfRangeError) as exc:
            validate_ensemble([[1.0, 1.0], [1.0, 1.0]])
        assert abs(exc.value.eigenvalue) < 1e-12

    def test_two_by_two_valid(self):
        ens = validate_ensemble([[2.0, 1.0], [1.0, 2.0]])
        w = np.linalg.eigvalsh(ens.array)
        np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-12)


class TestConversions:
    def test_k_from_l_scalar(self):
        k = k_from_l(validate_ensemble([[1.0]]))
        assert k.array[0, 0] == pytest.approx(0.5)

    def test_k_from_l_diagonal(self):
        k = k_from_l(validate_ensemble(np.diag([1.0, 3.0])))
        np.testing.assert_allclose(np.diag(k.array), [0.5, 0.75], atol=1e-14)

    def test_l_from_k_scalar(self):
        l = l_from_k(validate_marginal([[0.5]]))
        assert l.array[0, 0] == pytest.approx(1.0)

    def test_l_from_k_diagonal(self):
        l = l_from_k(validate_marginal(np.diag([0.5, 0.75])))
        np.testing.assert_allclose(np.diag(l.array), [1.0, 3.0], atol=1e-13)

    def test_round_trip_random(self):
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            larr = random_ensemble_matrix(rng, n)
            l = validate_ensemble(larr)
            back = l_from_k(k_from_l(l))
            np.testing.assert_allclose(back.array, l.array, atol=1e-10)

    def test_round_trip_demo_matrix(self):
        k = validate_marginal(DEMO_K)
        back = k_from_l(l_from_k(k))
        np.testing.assert_allclose(back.array, k.array, atol=1e-10)

    def test_round_trip_near_unit_eigenvalue(self):
        # lam_max = 1 - 1e-6 makes ||L|| about 1e6. 1 - lam is then known to
        # about eps / 1e-6 = 2e-10 relative, and eigh(L) resolves the other
        # eigenvalues to about eps * ||L|| = 2e-10 absolute; the bounds below
        # allow a small multiple of each.
        rng = np.random.default_rng(47)
        q = random_orthogonal(rng, 6)
        w = rng.uniform(0.08, 0.92, size=6)
        w[-1] = 1.0 - 1e-6
        k = validate_marginal((q * w) @ q.T)
        l = l_from_k(k)
        assert np.linalg.eigvalsh(l.array)[-1] == pytest.approx((1.0 - 1e-6) / 1e-6, rel=1e-8)
        np.testing.assert_allclose(k_from_l(l).array, k.array, atol=1e-9)

    def test_round_trips_near_the_pole(self):
        # Each conversion maps the eigenvalues its input carries. Decomposing
        # L (or a K composed from it) again would cost eigh's eps * ||L|| =
        # 2e-10: 1.4e-10 and 1.3e-9 on these seeds.
        for seed in range(200):
            rng = np.random.default_rng(seed)
            q = random_orthogonal(rng, 6)
            w = rng.uniform(0.08, 0.92, size=6)
            w[-1] = 1.0 - 1e-6
            k = validate_marginal((q * w) @ q.T)
            np.testing.assert_allclose(k_from_l(l_from_k(k)).array, k.array, rtol=0, atol=1e-13)
            model = DppModel.from_ensemble(l_from_k(k).array)
            l = model.ensemble.array
            err = np.max(np.abs(l_from_k(model.marginal).array - l)) / np.max(np.abs(l))
            assert err <= 1e-13, seed

    def test_eigenvalue_map(self):
        rng = np.random.default_rng(7)
        for n in (2, 4, 6):
            larr = random_ensemble_matrix(rng, n)
            wl = np.linalg.eigvalsh(larr)
            wk = np.linalg.eigvalsh(k_from_l(validate_ensemble(larr)).array)
            np.testing.assert_allclose(wk, wl / (1.0 + wl), atol=1e-10)


class TestComplementAndDual:
    def test_complement_diagonal(self):
        k = validate_marginal(np.diag([0.3, 0.7]))
        np.testing.assert_allclose(np.diag(complement_marginal(k).array), [0.7, 0.3])

    def test_complement_involution(self):
        k = validate_marginal(DEMO_K)
        np.testing.assert_allclose(
            complement_marginal(complement_marginal(k)).array, k.array, atol=1e-15
        )

    def test_complement_demo_diagonal(self):
        k = validate_marginal(DEMO_K)
        np.testing.assert_allclose(
            np.diag(complement_marginal(k).array), [0.95, 0.2, 0.4], atol=1e-15
        )

    def test_dual_scalar(self):
        l = l_from_k(complement_marginal(validate_marginal([[0.5]])))
        assert l.array[0, 0] == pytest.approx(1.0)

    def test_dual_diagonal(self):
        l = l_from_k(complement_marginal(validate_marginal(np.diag([0.25, 0.5]))))
        np.testing.assert_allclose(np.diag(l.array), [3.0, 1.0], atol=1e-13)


@pytest.fixture
def eig_calls(monkeypatch):
    """count(fn) runs fn and returns (its result, (eigh, eigvalsh, cholesky calls))."""
    calls = {"eigh": 0, "eigvalsh": 0, "cholesky": 0}

    def counted(name):
        inner = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))

    def count(fn):
        calls.update(eigh=0, eigvalsh=0, cholesky=0)
        out = fn()
        return out, (calls["eigh"], calls["eigvalsh"], calls["cholesky"])

    return count


class TestCarriedDecomposition:
    def test_every_kernel_carries_its_own_decomposition(self):
        """Validated, converted, complemented, dual and conditional kernels,
        and the matrices behind the derived ones and K^{-1}, all satisfy
        matrix = V diag(w) V^T with w ascending and both read-only."""
        rng = np.random.default_rng(53)
        for n in (1, 3, 6):
            k = validate_marginal(random_marginal_matrix(rng, n))
            l = validate_ensemble(random_ensemble_matrix(rng, n))
            model = DppModel.from_ensemble(l)
            comp = complement_marginal(k)
            derived = [l_from_k(k), k_from_l(l), comp, l_from_k(comp)]
            matrices = [ker.matrix for ker in derived] + [_inverse(model.marginal)]
            assert all(mat._spectrum is not None for mat in matrices)  # carried, not decomposed
            kernels = derived + [
                k, l, validate_ensemble(k), model.marginal, model.ensemble,
                conditional_kernel(model, Event(include=[1])).kernel,
            ] + [_eigh(mat) for mat in matrices]
            for ker in kernels:
                np.testing.assert_allclose((ker.vecs * ker.w) @ ker.vecs.T, ker.array, atol=1e-12)
                np.testing.assert_allclose(ker.vecs.T @ ker.vecs, np.eye(ker.n), atol=1e-12)
                assert np.all(np.diff(ker.w) >= 0)
                assert not ker.w.flags.writeable and not ker.vecs.flags.writeable
                assert "w=" not in repr(ker) and "vecs=" not in repr(ker)

    def test_kernel_decomposes_on_first_read(self, eig_calls):
        """A kernel on a matrix that carries no spectrum runs one eigh when w
        or V is first read, keeps both from it, and runs none after."""
        count = eig_calls
        sym = SymMatrix(DEMO_K)
        k, cost = count(lambda: validate_marginal(sym))
        assert cost == (0, 0, 2) and sym._spectrum is None  # accepted by Cholesky
        w, cost = count(lambda: k.w)
        assert cost == (1, 0, 0)
        (vecs, again), cost = count(lambda: (k.vecs, MarginalKernel(sym).w))
        assert cost == (0, 0, 0) and again is w
        w_ref, vecs_ref = np.linalg.eigh(sym.array)
        assert np.array_equal(w, w_ref) and np.array_equal(vecs, vecs_ref)

    def test_one_decomposition_per_kernel(self, eig_calls):
        count = eig_calls
        rng = np.random.default_rng(59)
        karr, larr = random_marginal_matrix(rng, 5), random_ensemble_matrix(rng, 5)
        m, cost = count(lambda: DppModel.from_marginal(karr))
        assert cost == (1, 0, 0)
        assert count(lambda: DppModel.from_ensemble(larr))[1] == (1, 0, 0)
        ck, cost = count(lambda: conditional_kernel(m, Event(include=[1], exclude=[2])))
        assert cost == (0, 1, 2)  # _condition's test of the block; Cholesky validates the result
        # Its law as a model decomposes it once, and (w, V) both come from that eigh.
        law, cost = count(lambda: DppModel.from_marginal(ck.kernel))
        assert cost == (1, 0, 0)
        w_ref, vecs_ref = np.linalg.eigh(ck.array)
        assert law.marginal.w is ck.kernel.w and law.marginal.vecs is ck.kernel.vecs
        assert np.array_equal(ck.kernel.w, w_ref) and np.array_equal(ck.kernel.vecs, vecs_ref)
        free = [
            lambda: l_from_k(m.marginal),
            lambda: k_from_l(m.ensemble),
            lambda: complement_marginal(m.marginal),
            lambda: l_from_k(complement_marginal(m.marginal)),
            lambda: validate_marginal(m.marginal),
            lambda: DppModel.from_marginal(ck.kernel),  # a second read
            lambda: DppModel.from_marginal(conditional_kernel(m, Event()).kernel),
        ]
        for fn in free:
            assert count(fn)[1] == (0, 0, 0)
        report = lambda: separation_zero_block_report(m.ensemble, [1], [2], [3])
        assert count(report)[1] == (0, 1, 0)

    def test_one_decomposition_per_matrix(self, eig_calls):
        """A derived kernel's matrix carries its spectrum, so validating it or
        reporting on it runs no eigh; a SymMatrix is decomposed once however
        often it is passed, a plain array once per call."""
        count = eig_calls
        rng = np.random.default_rng(61)
        karr = random_marginal_matrix(rng, 6)
        k = validate_marginal(karr)
        model = DppModel.from_marginal(k)
        comp = complement_marginal(k)
        report = lambda: separation_zero_block_report(comp.matrix, [1], [2], [3])
        assert count(report)[1] == (0, 1, 0)  # only _condition's test of M_C
        assert count(lambda: validate_ensemble(model.ensemble.matrix))[1] == (0, 0, 0)
        dual = lambda: validate_ensemble(l_from_k(complement_marginal(k)).matrix)
        assert count(dual)[1] == (0, 0, 0)
        sym = SymMatrix(karr)
        twice = lambda arg: [DppModel.from_marginal(arg) for _ in range(2)]
        assert count(lambda: twice(sym))[1] == (1, 0, 0)
        assert count(lambda: twice(karr))[1] == (2, 0, 0)

    def test_report_on_carried_spectrum_matches_fresh(self):
        """On banded (chain) models the zero-block report on I - K's matrix,
        whose inverse L + I is composed from the carried spectrum, reads the
        same as on a plain copy of its array, which is decomposed afresh."""
        rng = np.random.default_rng(67)
        for n in range(3, 13):
            l = ensemble_from_edges(rng, n, chain_edges(n))
            comp = complement_marginal(DppModel.from_ensemble(l).marginal)
            queries = [([1], [n], c) for c in ([], [2], list(range(2, n)))]
            for a, b, c in queries + [([1], [2], []), ([1, 2], [n], [])]:
                on_carried = separation_zero_block_report(comp.matrix, a, b, c)
                on_fresh = separation_zero_block_report(np.array(comp.array), a, b, c)
                assert on_carried == on_fresh
            assert separation_zero_block_report(comp.matrix, [1], [n], [2]).passed


def _verdict(validate, m):
    """Whether validate accepts m, or the type and message of its error."""
    try:
        validate(m)
        return "ok"
    except SpectrumOutOfRangeError as exc:
        return type(exc).__name__, str(exc)


def _planted_spectrum(rng, n, marginal):
    return rng.uniform(0.05, 0.95, n) if marginal else rng.uniform(0.05, 20.0, n)


class TestCholeskyValidation:
    """A plain matrix is accepted by Cholesky only with the rounding band delta
    to spare, so at the edges of the range, spectra planted at eps ± delta
    (and 1 - eps ± delta for K), validation agrees with the eigen test."""

    @pytest.mark.parametrize("n", [1, 8, 64, 300])
    @pytest.mark.parametrize("marginal", [True, False], ids=["K", "L"])
    def test_agrees_with_the_eigen_test_at_the_edges(self, n, marginal):
        validate = validate_marginal if marginal else validate_ensemble
        eps = DEFAULT_EPS_SPEC
        edges = [(0, eps, 1.0)] + ([(-1, 1.0 - eps, -1.0)] if marginal else [])
        rng = np.random.default_rng([73, n])
        fast = 0
        for _ in range(12 if n <= 8 else 1):
            q = random_orthogonal(rng, n)
            for pos, edge, inward in edges:
                w = _planted_spectrum(rng, n, marginal)
                w[pos] = edge
                delta = _rounding_band(SymMatrix((q * w) @ q.T), marginal)
                for t in (-2, -1, 0, 1, 2):
                    w[pos] = edge + inward * t * delta
                    arr = (q * w) @ q.T
                    sym = SymMatrix(arr)
                    got = _verdict(validate, sym)
                    fast += got == "ok" and sym._spectrum is None
                    assert got == _verdict(validate, _eigh(arr)), (pos, t)
        assert fast > 0  # the Cholesky accept was reached near the edge

    @pytest.mark.parametrize("n", [1, 8, 64, 300])
    def test_conditional_kernel_never_fails_its_model(self, n):
        """A conditional kernel accepted by Cholesky, its spectrum planted at
        the edges with delta to spare, builds a model: K = diag(S, c) given
        the last element in or out leaves S."""
        eps = DEFAULT_EPS_SPEC
        rng = np.random.default_rng([79, n])
        fast = 0
        for _ in range(6 if n <= 8 else 1):
            q = random_orthogonal(rng, n)
            for pos, edge, inward in [(0, eps, 1.0), (-1, 1.0 - eps, -1.0)]:
                for t in (1, 1.5, 2, 4):
                    w = _planted_spectrum(rng, n, True)
                    w[pos] = edge
                    w[pos] = edge + inward * t * _rounding_band(SymMatrix((q * w) @ q.T), True)
                    k = np.zeros((n + 1, n + 1))
                    k[:n, :n], k[n, n] = (q * w) @ q.T, 0.5
                    model = DppModel.from_marginal(k)
                    for given in (Event(include=[n + 1]), Event(exclude=[n + 1])):
                        ck = conditional_kernel(model, given)
                        fast += ck.kernel.matrix._spectrum is None
                        law = DppModel.from_marginal(ck.kernel)
                        assert law.n == n and ck.labels == tuple(range(1, n + 1))
        assert fast > 0

    def test_empty_conditional_kernel(self):
        rng = np.random.default_rng(83)
        model = DppModel.from_marginal(random_marginal_matrix(rng, 4))
        for given in (Event(include=[1, 2, 3, 4]), Event([1, 3], [2, 4]), Event(exclude=[1, 2, 3, 4])):
            ck = conditional_kernel(model, given)
            assert ck.n == 0 and ck.labels == () and ck.kernel.w.size == 0
            assert DppModel.from_marginal(ck.kernel).n == 0


class TestComposition:
    def test_composed_matrices_are_exactly_symmetric(self):
        """Every composed matrix is B B^T, exactly symmetric, and within
        4 n u max|M| of V diag(w) V^T."""
        rng = np.random.default_rng(89)
        for n in (1, 2, 3, 8, 33, 100):
            k = validate_marginal(random_marginal_matrix(rng, n))
            l = validate_ensemble(random_ensemble_matrix(rng, n))
            from_k = DppModel.from_marginal(random_marginal_matrix(rng, n))
            from_l = DppModel.from_ensemble(random_ensemble_matrix(rng, n))
            composed = [
                k_from_l(l), l_from_k(k), from_k.ensemble, from_l.marginal,
                l_from_k(complement_marginal(k)),
            ]
            composed += [_eigh(_inverse(ker)) for ker in (k, l, from_l.marginal, composed[-1])]
            for ker in composed:
                arr = ker.array
                assert np.array_equal(arr, arr.T), n
                reference = (ker.vecs * ker.w) @ ker.vecs.T
                bound = 4 * n * _UNIT_ROUNDOFF * float(np.abs(arr).max())
                assert float(np.abs(arr - reference).max()) <= bound, n

    @pytest.mark.parametrize("bad", [0.0, -1e-300, -0.5, np.nan, np.inf, -np.inf])
    def test_spectrum_without_a_square_root_raises(self, bad):
        w = np.array([0.25, bad, 2.0])
        with pytest.raises(NumericalFailureError, match="eigenvalues"):
            _compose(np.eye(3), w)


class TestSchurComplement:
    def test_empty_conditioning_is_identity_operation(self):
        m = SymMatrix(DEMO_K)
        assert schur_complement(m, []) is m

    def test_demo_matrix_explicit_values(self):
        s = schur_complement(SymMatrix(DEMO_K), [3])
        expected = np.array([
            [0.05 - 1.0 / 60.0, -1.0 / 30.0],
            [-1.0 / 30.0, 0.8 - 1.0 / 15.0],
        ])
        np.testing.assert_allclose(s.array, expected, atol=1e-15)

    def test_result_near_the_largest_float_stored_finite(self):
        """A finite Schur result with entries above FLOAT_MAX / 2 is stored
        finite, as SymMatrix stores such a matrix, with no overflow warning."""
        np.testing.assert_array_equal(
            schur_complement([[1e308, 0.0], [0.0, 1e308]], [1]).array, [[1e308]]
        )
        m = [[1.0, 9e307, 0.0], [9e307, 1.0, 0.0], [0.0, 0.0, 1.0]]
        np.testing.assert_array_equal(
            schur_complement(m, [3]).array, [[1.0, 9e307], [9e307, 1.0]]
        )

    def test_non_finite_result_raises(self):
        # 1 - 1e10 * 1e300 * 1e10 overflows the double range.
        with pytest.raises(NumericalFailureError, match="non-finite"):
            schur_complement([[1e-300, 1e10], [1e10, 1.0]], [1])
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(NumericalFailureError, match="non-finite"):
                SymMatrix._wrap(np.array([[1.0, bad], [0.0, 1.0]]))

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2**31 - 1),
           st.sampled_from([1e-310, 1.0, 2.0**1022]))
    def test_result_bits_below_half_the_largest_float(self, n, seed, scale):
        """Below FLOAT_MAX / 2 a computed result is stored as (S + S^T) / 2
        to the bit, odd subnormal entries too."""
        rng = np.random.default_rng(seed)
        s = rng.uniform(-0.5, 0.5, size=(n, n)) * scale
        np.testing.assert_array_equal(SymMatrix._wrap(s).array, (s + s.T) / 2.0)

    def test_determinant_identity(self):
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            m = random_ensemble_matrix(rng, n)
            for trial in range(4):
                csize = int(rng.integers(1, n))
                c = IndexSet((rng.permutation(n)[:csize] + 1).tolist())
                det_m = np.linalg.det(m)
                ci = indices0(c)
                det_c = np.linalg.det(SymMatrix(m).array[np.ix_(ci, ci)])
                det_s = np.linalg.det(schur_complement(m, c).array)
                assert det_m == pytest.approx(det_c * det_s, rel=1e-10)

    def test_singular_block_rejected(self):
        m = np.array([
            [1.0, 1.0, 0.3],
            [1.0, 1.0, 0.2],
            [0.3, 0.2, 2.0],
        ])
        with pytest.raises(SingularConditioningBlockError) as exc:
            schur_complement(SymMatrix(m), [1, 2])
        assert exc.value.det_estimate == pytest.approx(0.0, abs=1e-12)

    def test_positivity_preserved_for_marginal_kernels(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            k = validate_marginal(random_marginal_matrix(rng, n))
            csize = int(rng.integers(1, n))
            c = IndexSet((rng.permutation(n)[:csize] + 1).tolist())
            w = np.linalg.eigvalsh(schur_complement(k, c).array)
            assert w.min() > 0.0
            assert w.max() < 1.0

    def test_inverse_complement_identity(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            n = int(rng.integers(2, 9))
            k = validate_marginal(random_marginal_matrix(rng, n))
            csize = int(rng.integers(1, n))
            c = IndexSet((rng.permutation(n)[:csize] + 1).tolist())
            kinv = np.linalg.inv(k.array)
            ri = indices0(complement(c, n))
            prod = SymMatrix(kinv).array[np.ix_(ri, ri)] @ schur_complement(k, c).array
            np.testing.assert_allclose(prod, np.eye(n - csize), atol=1e-9)


class TestPdFacts:
    def test_zeroing_off_diagonal_block_keeps_pd(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            n = int(rng.integers(2, 8))
            m = random_ensemble_matrix(rng, n)
            split = int(rng.integers(1, n))
            m0 = m.copy()
            m0[:split, split:] = 0.0
            m0[split:, :split] = 0.0
            assert np.linalg.eigvalsh(m0).min() > 0.0

    def test_adding_psd_increases_determinant(self):
        rng = np.random.default_rng(29)
        for trial in range(20):
            n = int(rng.integers(1, 7))
            a = random_ensemble_matrix(rng, n)
            rank = int(rng.integers(1, n + 1))
            g = rng.normal(size=(n, rank))
            b = g @ g.T
            assert np.linalg.det(a + b) > np.linalg.det(a)
            assert np.linalg.det(a + np.zeros((n, n))) == np.linalg.det(a)


# Every public function that takes several index sets, with elements 1 and 2
# in the query sets and x in one more set. On the 3-element demo kernel,
# x = 4 lies outside the ground set and x = 1 is shared with the first set;
# x = 10**12 must be rejected before any bitmask with that bit is formed.
_MULTI_SET_QUERIES = {
    "separates": lambda env, x: separates(env["graph"], [1], [2], [x]),
    "graph_certified_ci": lambda env, x: graph_certified_ci(env["model"], [1], [2], d=[x]),
    "graph_certified_multiway_ci": lambda env, x: graph_certified_multiway_ci(
        env["model"], [[1], [2]], c=[x]
    ),
    "separation_zero_block_report": lambda env, x: separation_zero_block_report(
        DEMO_K, [1], [2], [x]
    ),
    "process_independence": lambda env, x: process_independence(
        env["table"], [1], [2], Event([x], [])
    ),
    "multiway_independence": lambda env, x: multiway_independence(
        env["table"], [[1], [2]], Event([], [x])
    ),
    "check_conditional_independence": lambda env, x: check_conditional_independence(
        env["model"], CiQuery([1], [2], given_out=[x])
    ),
    "check_pairwise_given_rest_included": lambda env, x: check_pairwise_given_rest_included(
        env["model"], 1, x
    ),
    "check_pairwise_given_rest_excluded": lambda env, x: check_pairwise_given_rest_excluded(
        env["model"], 1, x
    ),
}


@pytest.fixture(scope="module")
def query_env():
    model = DppModel.from_marginal(DEMO_K)
    return {"model": model, "table": build_table(model), "graph": induced_graph(DEMO_K)}


@pytest.mark.parametrize("x, error", [(4, IndexOutOfRangeError), (1, OverlappingSetsError),
                                      (10**12, IndexOutOfRangeError)],
                         ids=["out-of-range", "shared", "huge"])
@pytest.mark.parametrize("name", list(_MULTI_SET_QUERIES))
def test_multi_set_query_boundary(query_env, name, x, error):
    with pytest.raises(error):
        _MULTI_SET_QUERIES[name](query_env, x)


# Every public function that takes one index set or one Event, with x in it.
_SINGLE_SET_QUERIES = {
    "inclusion_prob": lambda env, x: inclusion_prob(env["model"], [x]),
    "exact_prob": lambda env, x: exact_prob(env["model"], [1, x]),
    "mixed_prob": lambda env, x: mixed_prob(env["model"], Event([1], [x])),
    "conditional_kernel": lambda env, x: conditional_kernel(env["model"], Event([], [x])),
    "event_prob": lambda env, x: event_prob(env["table"], Event([x], [2])),
    "JointTable.prob_of": lambda env, x: env["table"].prob_of([x]),
    "schur_complement": lambda env, x: schur_complement(DEMO_K, [x]),
}


@pytest.mark.parametrize("x", [4, 10**12], ids=["out-of-range", "huge"])
@pytest.mark.parametrize("name", list(_SINGLE_SET_QUERIES))
def test_single_set_query_boundary(query_env, monkeypatch, name, x):
    """Out-of-range elements raise before any bitmask with their bit is formed."""
    mask = IndexSet.mask.fget

    def guarded_mask(self):
        assert all(i <= query_env["model"].n for i in self), f"bitmask formed for {self}"
        return mask(self)

    monkeypatch.setattr(IndexSet, "mask", property(guarded_mask))
    start = time.perf_counter()
    with pytest.raises(IndexOutOfRangeError):
        _SINGLE_SET_QUERIES[name](query_env, x)
    assert time.perf_counter() - start < 1.0
