import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppci import (
    AsymmetricMatrixError,
    CiQuery,
    DppModel,
    EMPTY_SET,
    Event,
    IndexOutOfRangeError,
    IndexSet,
    NonFiniteError,
    OverlappingSetsError,
    SingularConditioningBlockError,
    SpectrumOutOfRangeError,
    SymMatrix,
    as_index_set,
    block,
    build_table,
    check_conditional_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    complement_marginal,
    conditional_kernel,
    dual_ensemble,
    event_independence,
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
    submatrix,
    validate_ensemble,
    validate_marginal,
)
from generators import random_ensemble_matrix, random_marginal_matrix, random_orthogonal

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
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

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
        assert IndexSet.of(2, 5).members == (2, 5)

    def test_rejects_nonpositive(self):
        with pytest.raises(IndexOutOfRangeError):
            IndexSet([0, 1])

    def test_mask_uses_bit_i_minus_1(self):
        assert IndexSet.of(1).mask == 1
        assert IndexSet.of(2).mask == 2
        assert IndexSet.of(1, 3).mask == 5

    def test_complement(self):
        assert IndexSet.of(2).complement(4).members == (1, 3, 4)
        assert EMPTY_SET.complement(3).members == (1, 2, 3)

    def test_check_within(self):
        with pytest.raises(IndexOutOfRangeError):
            IndexSet.of(4).check_within(3)

    def test_as_index_set_coercions(self):
        assert as_index_set(None) is EMPTY_SET
        assert as_index_set(3).members == (3,)
        assert as_index_set([2, 1]).members == (1, 2)
        s = IndexSet.of(1)
        assert as_index_set(s) is s

    @given(st.lists(st.integers(min_value=1, max_value=30)))
    def test_members_invariant(self, raw):
        s = IndexSet(raw)
        assert list(s.members) == sorted(set(raw))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), None, 1.5, "2"],
                             ids=["nan", "inf", "-inf", "none", "fraction", "str"])
    def test_non_integer_element_is_typed_error(self, bad):
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            IndexSet([bad])
        with pytest.raises(IndexOutOfRangeError, match="is not an integer"):
            as_index_set(bad if bad is not None else [None])

    @pytest.mark.parametrize("scalar", [3, 3.0, np.int64(3), np.float64(3.0), np.array(3)],
                             ids=["int", "float", "np-int", "np-float", "0-d-array"])
    def test_scalar_is_one_element_set(self, scalar):
        assert as_index_set(scalar) == as_index_set([scalar]) == IndexSet.of(3)
        assert type(as_index_set(scalar).members[0]) is int

    @given(
        st.lists(st.integers(min_value=1, max_value=30)),
        st.lists(st.integers(min_value=1, max_value=30)),
        st.integers(min_value=0, max_value=10),
    )
    def test_derived_sets_match_checked_constructor(self, s, t, extra):
        n = max(s, default=0) + extra
        a = IndexSet(s)
        derived = [a.union(IndexSet(t)), a.complement(n), IndexSet._of_mask(a.mask)]
        assert derived[0] == IndexSet(s + t)
        assert derived[1] == IndexSet(set(range(1, n + 1)) - set(s))
        assert derived[2] == a
        assert all(type(i) is int for d in derived for i in d)


class TestEvent:
    def test_disjointness_enforced(self):
        with pytest.raises(OverlappingSetsError):
            Event(include=[1, 2], exclude=[2])

    def test_trivial(self):
        assert Event().trivial
        assert not Event(include=[1]).trivial


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
        l = dual_ensemble(validate_marginal([[0.5]]))
        assert l.array[0, 0] == pytest.approx(1.0)

    def test_dual_diagonal(self):
        l = dual_ensemble(validate_marginal(np.diag([0.25, 0.5])))
        np.testing.assert_allclose(np.diag(l.array), [3.0, 1.0], atol=1e-13)

    def test_dual_equals_ensemble_of_complement(self):
        rng = np.random.default_rng(3)
        for n in (2, 5):
            k = validate_marginal(random_marginal_matrix(rng, n))
            lhs = dual_ensemble(k).array
            rhs = l_from_k(complement_marginal(k)).array
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


class TestCarriedDecomposition:
    def test_every_kernel_carries_its_own_decomposition(self):
        """Validated, converted, complemented, dual and conditional kernels all
        satisfy matrix = V diag(w) V^T with w ascending and both read-only."""
        rng = np.random.default_rng(53)
        for n in (1, 3, 6):
            k = validate_marginal(random_marginal_matrix(rng, n))
            l = validate_ensemble(random_ensemble_matrix(rng, n))
            model = DppModel.from_ensemble(l)
            kernels = [
                k, l, l_from_k(k), k_from_l(l), complement_marginal(k), dual_ensemble(k),
                validate_ensemble(k), model.marginal, model.ensemble,
                conditional_kernel(model, Event(include=[1])).kernel,
            ]
            for ker in kernels:
                np.testing.assert_allclose((ker.vecs * ker.w) @ ker.vecs.T, ker.array, atol=1e-12)
                np.testing.assert_allclose(ker.vecs.T @ ker.vecs, np.eye(ker.n), atol=1e-12)
                assert np.all(np.diff(ker.w) >= 0)
                assert not ker.w.flags.writeable and not ker.vecs.flags.writeable
                assert "w=" not in repr(ker) and "vecs=" not in repr(ker)

    def test_one_decomposition_per_kernel(self, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name):
            inner = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))

        def count(fn):
            calls.update(eigh=0, eigvalsh=0)
            out = fn()
            return out, (calls["eigh"], calls["eigvalsh"])

        rng = np.random.default_rng(59)
        karr, larr = random_marginal_matrix(rng, 5), random_ensemble_matrix(rng, 5)
        m, cost = count(lambda: DppModel.from_marginal(karr))
        assert cost == (1, 0)
        assert count(lambda: DppModel.from_ensemble(larr))[1] == (1, 0)
        ck, cost = count(lambda: conditional_kernel(m, Event(include=[1], exclude=[2])))
        assert cost == (1, 1)  # validating the result, and _condition's test of the block
        free = [
            lambda: l_from_k(m.marginal),
            lambda: k_from_l(m.ensemble),
            lambda: complement_marginal(m.marginal),
            lambda: dual_ensemble(m.marginal),
            lambda: validate_marginal(m.marginal),
            lambda: ck.model(),
            lambda: conditional_kernel(m, Event()).model(),
        ]
        for fn in free:
            assert count(fn)[1] == (0, 0)
        report = lambda: separation_zero_block_report(m.ensemble, [1], [2], [3])
        assert count(report)[1] == (0, 1)


class TestSubmatrixAndBlock:
    def test_demo_principal_submatrix(self):
        sub = submatrix(validate_marginal(DEMO_K), [2, 3])
        np.testing.assert_allclose(sub.array, [[0.8, 0.2], [0.2, 0.6]])

    def test_full_set_returns_same_values(self):
        m = SymMatrix(DEMO_K)
        np.testing.assert_array_equal(submatrix(m, [1, 2, 3]).array, m.array)

    def test_empty_set_gives_0x0_with_det_one(self):
        sub = submatrix(SymMatrix(DEMO_K), [])
        assert sub.array.shape == (0, 0)
        assert np.linalg.det(sub.array) == 1.0

    def test_demo_block(self):
        b = block(SymMatrix(DEMO_K), [1], [3])
        np.testing.assert_allclose(b, [[0.1]])

    def test_empty_block_shape(self):
        assert block(SymMatrix(DEMO_K), [], [1, 2]).shape == (0, 2)

    def test_block_transpose(self):
        m = SymMatrix(random_marginal_matrix(np.random.default_rng(0), 5))
        np.testing.assert_array_equal(
            block(m, [1, 4], [2, 3, 5]), block(m, [2, 3, 5], [1, 4]).T
        )

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            submatrix(SymMatrix(DEMO_K), [4])
        with pytest.raises(IndexOutOfRangeError):
            block(SymMatrix(DEMO_K), [1], [5])


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

    def test_determinant_identity(self):
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            m = random_ensemble_matrix(rng, n)
            for trial in range(4):
                csize = int(rng.integers(1, n))
                c = IndexSet((rng.permutation(n)[:csize] + 1).tolist())
                det_m = np.linalg.det(m)
                det_c = np.linalg.det(submatrix(m, c).array)
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
            prod = submatrix(kinv, c.complement(n)).array @ schur_complement(k, c).array
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
    "event_independence": lambda env, x: event_independence(
        env["table"], Event([1], []), Event([2], [x])
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
# block checks A and B apart (they may overlap), so both positions are asked.
_SINGLE_SET_QUERIES = {
    "inclusion_prob": lambda env, x: inclusion_prob(env["model"], [x]),
    "exact_prob": lambda env, x: exact_prob(env["model"], [1, x]),
    "mixed_prob": lambda env, x: mixed_prob(env["model"], Event([1], [x])),
    "conditional_kernel": lambda env, x: conditional_kernel(env["model"], Event([], [x])),
    "event_prob": lambda env, x: event_prob(env["table"], Event([x], [2])),
    "JointTable.prob_of": lambda env, x: env["table"].prob_of([x]),
    "submatrix": lambda env, x: submatrix(DEMO_K, [1, x]),
    "block-rows": lambda env, x: block(DEMO_K, [x], [1]),
    "block-columns": lambda env, x: block(DEMO_K, [1], [x]),
    "schur_complement": lambda env, x: schur_complement(DEMO_K, [x]),
    "InducedGraph.neighbors": lambda env, x: env["graph"].neighbors(x),
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
