import hashlib
import itertools
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppci import (
    ConditioningEventNegligibleError,
    DppError,
    DppModel,
    Event,
    GroundSetTooLargeError,
    IndexSet,
    JointTable,
    OracleVerdict,
    OverlappingSetsError,
    build_table,
    event_prob,
    mixed_prob,
    multiway_independence,
    process_independence,
    sample_many,
)
from dppci import kernels, oracle
from dppci.oracle import _split, _tril
from generators import (
    _assemble_blocks,
    block_diag_ensemble,
    block_diag_marginal,
    chain_edges,
    ensemble_from_edges,
    random_disjoint_sets,
    random_ensemble_matrix,
    random_marginal_matrix,
    random_orthogonal,
    random_tree_edges,
    star_edges,
    union,
)

DEMO_K = [
    [0.05, 0.0, 0.1],
    [0.0, 0.8, 0.2],
    [0.1, 0.2, 0.6],
]


@pytest.fixture(scope="module")
def demo_table():
    return build_table(DppModel.from_marginal(DEMO_K))


class TestBuildTable:
    def test_scalar_half_half(self):
        t = build_table(DppModel.from_ensemble([[1.0]]))
        np.testing.assert_allclose(t.probs, [0.5, 0.5], atol=1e-14)

    def test_diagonal_two_elements(self):
        t = build_table(DppModel.from_ensemble(np.diag([1.0, 3.0])))
        np.testing.assert_allclose(t.probs, [1 / 8, 1 / 8, 3 / 8, 3 / 8], atol=1e-14)

    def test_bitmask_convention(self):
        t = build_table(DppModel.from_ensemble(np.diag([1.0, 3.0])))
        assert t.prob_of([1]) == t.probs[1]
        assert t.prob_of([2]) == t.probs[2]
        assert t.prob_of([1, 2]) == t.probs[3]
        assert t.prob_of([]) == t.probs[0]

    def test_demo_table_sums_to_one(self, demo_table):
        assert demo_table.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_demo_table_matches_mixed_prob(self, demo_table):
        model = DppModel.from_marginal(DEMO_K)
        for inc in ([], [1], [3], [1, 3]):
            for exc in ([], [2]):
                if set(inc) & set(exc):
                    continue
                ev = Event(inc, exc)
                assert event_prob(demo_table, ev) == pytest.approx(
                    mixed_prob(model, ev), abs=1e-12
                )

    def test_cap_enforced(self):
        model = DppModel.from_marginal(np.eye(21) * 0.5)
        with pytest.raises(GroundSetTooLargeError):
            build_table(model)

    @pytest.mark.parametrize("kind", ["marginal", "ensemble"])
    def test_matches_det_reference(self, kind):
        """The chain rule on K against one determinant of L per subset."""
        rng = np.random.default_rng(71 if kind == "marginal" else 73)
        for n in range(2, 15):
            if kind == "marginal":
                model = DppModel.from_marginal(random_marginal_matrix(rng, n))
            else:
                model = DppModel.from_ensemble(random_ensemble_matrix(rng, n))
            ref = _det_table(model)
            rel = np.abs(build_table(model).probs - ref) / ref
            assert rel.max() <= 1e-13, (n, rel.max())

    @pytest.mark.parametrize("n", [6, 12])
    @pytest.mark.parametrize("dense", [True, False])
    def test_near_pole_spectrum(self, n, dense):
        """λ_min = 1e-9 and λ_max = 1 - 1e-9: pivots near 0 and 1 stay finite,
        and each element's inclusion frequency in the table is K_ii."""
        rng = np.random.default_rng(79 + n)
        w = np.concatenate([[1e-9, 1.0 - 1e-9], rng.uniform(0.08, 0.92, size=n - 2)])
        if dense:
            q = random_orthogonal(rng, n)
            k = (q * w) @ q.T
        else:
            k = np.diag(rng.permutation(w))
        model = DppModel.from_marginal(k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs = build_table(model).probs
        assert np.all(np.isfinite(probs))
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        masks = np.arange(1 << n)
        inclusion = [probs[(masks >> i) & 1 == 1].sum() for i in range(n)]
        np.testing.assert_allclose(inclusion, np.diag(model.marginal.array), atol=1e-12)

    def test_pivot_at_zero_or_one_gives_weight_zero(self):
        """A branch whose pivot is exactly 1 (out) or 0 (in) has weight 0 and
        a finite kernel, with no division by zero."""
        # [[0.3, 0], [0, 1]] and [[0.6, 0], [0, 0]] as packed lower triangles,
        # one branch per column.
        kernels = np.array([[0.3, 0.6], [0.0, 0.0], [1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nxt, weights = _split(kernels, np.array([0.5, 0.5]), *np.tril_indices(2))
        np.testing.assert_array_equal(weights, [0.0, 0.5, 0.5, 0.0])
        np.testing.assert_array_equal(nxt.ravel(), [0.3, 0.3, 0.6, 0.6])

    def test_largest_ground_set(self):
        model = DppModel.from_marginal(random_marginal_matrix(np.random.default_rng(83), 20))
        probs = build_table(model).probs
        assert probs.shape == (1 << 20,)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_memory_bounded_by_the_table(self):
        """The conditioning stack stays small next to the 2^n table itself."""
        model = DppModel.from_marginal(random_marginal_matrix(np.random.default_rng(89), 18))
        tracemalloc.start()
        try:
            probs = build_table(model).probs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * probs.nbytes, peak / probs.nbytes


def _stacked_split(kernels, weights):
    """One chain-rule level on a (branches, m, m) stack with both triangles
    stored and the branch axis first: the reference that the packed
    ``_split`` must match bit for bit."""
    m = kernels.shape[1] - 1
    p = kernels[:, m, m]
    q = 1.0 - p
    col = kernels[:, :m, m]
    outer = col[:, :, None] * col[:, None, :]
    nxt = np.zeros((2 * len(kernels), m, m))
    np.divide(outer, q[:, None, None], out=nxt[0::2], where=(q > 0.0)[:, None, None])
    np.divide(outer, -p[:, None, None], out=nxt[1::2], where=(p > 0.0)[:, None, None])
    rest = kernels[:, :m, :m]
    nxt[0::2] += rest
    nxt[1::2] += rest
    return nxt, np.stack((weights * q, weights * p), axis=1).ravel()


def _stacked_table(k):
    """build_table's probs by the stacked chain rule, breadth first to the
    leaves, with the same clamp of tiny negatives to 0."""
    kernels, probs = np.asarray(k, dtype=float)[None], np.ones(1)
    while kernels.shape[1]:
        kernels, probs = _stacked_split(kernels, probs)
    probs[probs < 0.0] = 0.0
    return probs


class TestPackedChainRule:
    """The packed, branch-last chain rule gives the stacked one's bits."""

    @staticmethod
    def assert_same_bits(model):
        probs = build_table(model).probs
        ref = _stacked_table(model.marginal.array)
        np.testing.assert_array_equal(probs.view(np.int64), ref.view(np.int64))

    def test_random_marginal(self):
        rng = np.random.default_rng(97)
        for n in range(15):
            self.assert_same_bits(DppModel.from_marginal(random_marginal_matrix(rng, n)))

    @pytest.mark.parametrize("shape", ["chain", "star", "tree"])
    def test_sparse_ensemble(self, shape):
        rng = np.random.default_rng(101)
        for n in range(2, 15):
            edges = {"chain": chain_edges(n), "star": star_edges(n), "tree": random_tree_edges(rng, n)}
            self.assert_same_bits(DppModel.from_ensemble(ensemble_from_edges(rng, n, edges[shape])))

    def test_block_diagonal_marginal_with_exact_zeros(self):
        rng = np.random.default_rng(103)
        for sizes in ([1, 1], [1, 3], [2, 2, 3], [4, 1, 5], [3, 3, 3, 3], [7, 7]):
            k, _ = block_diag_marginal(rng, sizes)
            self.assert_same_bits(DppModel.from_marginal(k))

    def test_index_pairs_kept_per_n_and_read_only(self):
        for n in (0, 1, 5, 8):
            rows, cols = _tril(n)
            assert _tril(n)[0] is rows
            np.testing.assert_array_equal(np.stack([rows, cols]), np.tril_indices(n))
            assert not rows.flags.writeable and not cols.flags.writeable

    @pytest.mark.parametrize("size", [1, 2, 3, 6])
    def test_planted_pivots_at_zero_and_one(self, size):
        """Every level of a stack of 12 branches, one in three with a pivot
        of exactly 0 and one in three exactly 1, matched entry by entry."""
        rng = np.random.default_rng(107 + size)
        rows, cols = np.tril_indices(size)
        stack = rng.uniform(-0.4, 0.4, size=(12, size, size))
        stack = stack + stack.transpose(0, 2, 1)
        stack[:, np.arange(size), np.arange(size)] = rng.uniform(0.1, 0.9, size=(12, size))
        weights = rng.uniform(0.1, 1.0, size=12)
        packed, packed_weights = stack[:, rows, cols].T, weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in range(size - 1, -1, -1):
                stack[0::3, m, m] = packed[-1, 0::3] = 0.0
                stack[1::3, m, m] = packed[-1, 1::3] = 1.0
                stack, weights = _stacked_split(stack, weights)
                packed, packed_weights = _split(packed, packed_weights, rows, cols)
                np.testing.assert_array_equal(
                    packed.view(np.int64), stack[:, rows[: len(packed)], cols[: len(packed)]].T.view(np.int64)
                )
                np.testing.assert_array_equal(packed_weights.view(np.int64), weights.view(np.int64))


def _planted_pivot_model(rng, n, low):
    """A stand-in model whose chain rule meets pivots of exactly 0 and 1 in
    some branches of a stack while the others stay inside (0, 1). Its K has
    the eigenvalues 0 and 1, which validation rejects, so it is no DppModel:
    build_table reads only n and the kernel's array. K holds two 2×2
    blocks, one with eigenvalue 0 and one with eigenvalue 1, below
    (conditioned last) or above a random valid rest."""
    # Conditioning on a block's second element (pivot 0.5) leaves its first
    # a pivot of 0.25 (out) and exactly 0 (in) in the first block, and
    # exactly 1 (out) and 0.75 (in) in the second.
    planted = [np.array([[0.125, 0.25], [0.25, 0.5]]), np.array([[0.875, 0.25], [0.25, 0.5]])]
    rest = [DppModel.from_marginal(random_marginal_matrix(rng, n - 4)).marginal.array]
    k, _ = _assemble_blocks(planted + rest if low else rest + planted)
    return SimpleNamespace(n=n, marginal=SimpleNamespace(array=k))


class TestStackBudget:
    """build_table splits all branches together and halves a stack whose
    children would outgrow _STACK_ENTRIES; every budget gives the same bits."""

    DEFAULT = oracle._STACK_ENTRIES
    BUDGETS = [1, 7, 64]

    @staticmethod
    def assert_same_bits(model, budgets, monkeypatch):
        ref = _stacked_table(model.marginal.array).view(np.int64)
        for budget in budgets:
            monkeypatch.setattr(oracle, "_STACK_ENTRIES", budget)
            np.testing.assert_array_equal(build_table(model).probs.view(np.int64), ref, err_msg=f"budget {budget}")

    def test_random_marginal(self, monkeypatch):
        rng = np.random.default_rng(109)
        for n in range(13):
            model = DppModel.from_marginal(random_marginal_matrix(rng, n))
            self.assert_same_bits(model, self.BUDGETS, monkeypatch)

    @pytest.mark.parametrize("shape", ["chain", "star", "tree"])
    def test_sparse_ensemble(self, shape, monkeypatch):
        rng = np.random.default_rng(113)
        for n in range(2, 13):
            edges = {"chain": chain_edges(n), "star": star_edges(n), "tree": random_tree_edges(rng, n)}
            model = DppModel.from_ensemble(ensemble_from_edges(rng, n, edges[shape]))
            self.assert_same_bits(model, self.BUDGETS, monkeypatch)

    def test_block_diagonal_marginal_with_exact_zeros(self, monkeypatch):
        rng = np.random.default_rng(127)
        for sizes in ([1, 1], [1, 3], [2, 2, 3], [4, 1, 5], [3, 3, 3, 3]):
            k, _ = block_diag_marginal(rng, sizes)
            self.assert_same_bits(DppModel.from_marginal(k), self.BUDGETS, monkeypatch)

    @pytest.mark.parametrize("low", [True, False])
    def test_planted_pivots_at_zero_and_one(self, low, monkeypatch):
        """Pivots of exactly 0 and 1 next to inner ones in one stack take the
        masked split, at every budget, with no division by zero; the
        branches they end carry weight 0."""
        rng = np.random.default_rng(131 + low)
        for n in (4, 7, 10):
            model = _planted_pivot_model(rng, n, low)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                self.assert_same_bits(model, [self.DEFAULT, *self.BUDGETS], monkeypatch)
            # Both in the first block, or neither of the second: 7 in 16.
            assert np.count_nonzero(build_table(model).probs == 0.0) == 7 << (n - 4)

    def test_default_budget_matches_unbounded_at_17(self, monkeypatch):
        model = DppModel.from_marginal(random_marginal_matrix(np.random.default_rng(137), 17))
        probs = build_table(model).probs
        monkeypatch.setattr(oracle, "_STACK_ENTRIES", 1 << 40)
        np.testing.assert_array_equal(probs.view(np.int64), build_table(model).probs.view(np.int64))

    def test_levels_split_together_within_the_budget(self, monkeypatch):
        """At n = 18 no child stack exceeds the budget, and the branches are
        split together: 127 calls, where finishing each of the 16 top-level
        branches alone over its last 14 levels took 228."""
        sizes = []

        def counted(kernels, weights, rows, cols):
            nxt, ws = _split(kernels, weights, rows, cols)
            sizes.append(nxt.size)
            return nxt, ws

        monkeypatch.setattr(oracle, "_split", counted)
        build_table(DppModel.from_marginal(random_marginal_matrix(np.random.default_rng(139), 18)))
        assert max(sizes) <= self.DEFAULT
        assert len(sizes) == 127 < 228


@pytest.mark.parametrize(
    "n, digest",
    [
        (16, "a643ac1defaa7e0debadac52870f648495a7a1e093e15cd618ca37ab003e624f"),
        (18, "bbc3a92dbdfe98dc8f59ef912171d616b33d27f472e77f758fcc2ca9e4ba7495"),
    ],
)
def test_table_bits_pinned(n, digest):
    """The table of K_ij = 0.3·0.5^|i-j| (eigenvalues 0.10 to 0.86), built
    elementwise with no LAPACK call, has the same bits on every supported
    NumPy: the chain rule is IEEE products, divides and adds."""
    i = np.arange(n)
    k = 0.3 * 0.5 ** np.abs(i[:, None] - i[None, :])
    probs = build_table(DppModel.from_marginal(k)).probs
    assert hashlib.sha256(probs.tobytes()).hexdigest() == digest


def _det_table(model):
    """Pr(Y = A) = det(L_A) / det(L + I), one determinant per subset mask."""
    l, n = model.ensemble.array, model.n
    subsets = ([i for i in range(n) if mask >> i & 1] for mask in range(1 << n))
    dets = [np.linalg.det(l[np.ix_(idx, idx)]) for idx in subsets]
    return np.array(dets) / np.linalg.det(l + np.eye(n))


class TestEventProb:
    def test_trivial_event(self, demo_table):
        assert event_prob(demo_table, Event([], [])) == pytest.approx(1.0, abs=1e-12)

    def test_demo_value(self, demo_table):
        assert event_prob(demo_table, Event([1, 3], [2])) == pytest.approx(0.006, abs=1e-12)

    def test_agreement_with_mixed_prob_random(self):
        rng = np.random.default_rng(53)
        from generators import random_model

        for trial in range(25):
            n = int(rng.integers(2, 7))
            model = random_model(rng, n)
            t = build_table(model)
            assign = rng.integers(0, 3, size=n)
            ev = Event(
                (np.where(assign == 0)[0] + 1).tolist(),
                (np.where(assign == 1)[0] + 1).tolist(),
            )
            assert event_prob(t, ev) == pytest.approx(mixed_prob(model, ev), abs=1e-10)


class TestProcessIndependence:
    def test_block_diagonal_unconditional(self):
        rng = np.random.default_rng(59)
        larr, spans = block_diag_ensemble(rng, [2, 3])
        t = build_table(DppModel.from_ensemble(larr))
        verdict = process_independence(t, spans[0], spans[1])
        assert verdict.independent
        assert verdict.residual < 1e-12

    def test_chain_given_middle_excluded(self):
        rng = np.random.default_rng(61)
        larr = ensemble_from_edges(rng, 3, chain_edges(3))
        t = build_table(DppModel.from_ensemble(larr))
        verdict = process_independence(t, [1], [3], Event([], [2]))
        assert verdict.independent

    def test_demo_dependent(self, demo_table):
        verdict = process_independence(demo_table, [1], [3])
        assert not verdict.independent
        assert verdict.residual > 1e-3

    def test_overlap_rejected(self, demo_table):
        with pytest.raises(OverlappingSetsError):
            process_independence(demo_table, [1], [1])
        with pytest.raises(OverlappingSetsError):
            process_independence(demo_table, [1], [2], Event([1], []))

    def test_negligible_conditioning(self):
        model = DppModel.from_marginal(np.eye(6) * 5e-4)
        t = build_table(model)
        with pytest.raises(ConditioningEventNegligibleError):
            process_independence(t, [1], [2], Event([3, 4, 5, 6], []))

    def test_empty_side_trivially_independent(self, demo_table):
        verdict = process_independence(demo_table, [], [1, 2])
        assert verdict.independent
        assert verdict.residual == 0.0


class TestMultiway:
    def test_single_part(self, demo_table):
        verdict = multiway_independence(demo_table, [[1, 2]])
        assert verdict.independent

    def test_star_leaves_given_center_excluded(self):
        rng = np.random.default_rng(67)
        larr = ensemble_from_edges(rng, 5, star_edges(5))
        t = build_table(DppModel.from_ensemble(larr))
        verdict = multiway_independence(t, [[2], [3], [4, 5]], Event([], [1]))
        assert verdict.independent
        assert verdict.residual < 1e-10

    def test_dense_two_parts_dependent(self):
        rng = np.random.default_rng(71)
        larr = ensemble_from_edges(rng, 4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
        t = build_table(DppModel.from_ensemble(larr))
        verdict = multiway_independence(t, [[1, 2], [3, 4]])
        assert not verdict.independent

    def test_three_blocks_unconditional(self):
        rng = np.random.default_rng(73)
        larr, spans = block_diag_ensemble(rng, [2, 2, 2])
        t = build_table(DppModel.from_ensemble(larr))
        verdict = multiway_independence(t, spans)
        assert verdict.independent
        assert verdict.residual < 1e-12

    def test_matches_pairwise_for_two_parts(self, demo_table):
        two = multiway_independence(demo_table, [[1], [3]])
        pair = process_independence(demo_table, [1], [3])
        assert two.independent == pair.independent
        assert two.residual == pytest.approx(pair.residual, abs=1e-15)

    def test_empty_part_dropped(self, demo_table):
        with_empty = multiway_independence(demo_table, [[1], [2], []])
        assert with_empty == multiway_independence(demo_table, [[1], [2]])
        assert multiway_independence(demo_table, [[1, 2], []]) == (True, 0.0)


class TestEventIndependence:
    def test_demo_mixed_events_factor(self, demo_table):
        both = event_prob(demo_table, Event([1, 3], [2]))
        left, right = event_prob(demo_table, Event([1], [2])), event_prob(demo_table, Event([3]))
        assert abs(both - left * right) < 1e-12

    def test_demo_inclusion_events_do_not_factor(self, demo_table):
        both = event_prob(demo_table, Event([1, 3]))
        left, right = event_prob(demo_table, Event([1])), event_prob(demo_table, Event([3]))
        assert abs(both - left * right) > 1e-9


class TestSample:
    def test_point_mass(self):
        probs = np.zeros(8)
        probs[5] = 1.0  # {1, 3}
        t = JointTable(n=3, probs=probs)
        for seed in range(5):
            assert sample_many(t, 1, seed=seed)[0].members == (1, 3)

    def test_scalar_frequency(self):
        t = build_table(DppModel.from_ensemble([[1.0]]))
        draws = sample_many(t, 100_000, seed=12345)
        freq = sum(1 for s in draws if 1 in s) / len(draws)
        assert freq == pytest.approx(0.5, abs=0.01)

    def test_seed_reproducible(self, demo_table):
        a = [s.members for s in sample_many(demo_table, 50, seed=9)]
        b = [s.members for s in sample_many(demo_table, 50, seed=9)]
        assert a == b

    def test_empirical_matches_table(self, demo_table):
        draws = sample_many(demo_table, 50_000, seed=99)
        counts = np.zeros(8)
        for s in draws:
            counts[s.mask] += 1
        np.testing.assert_allclose(counts / len(draws), demo_table.probs, atol=0.01)


@settings(deadline=None, max_examples=40)
@given(
    include=st.sets(st.integers(min_value=1, max_value=4)),
    exclude=st.sets(st.integers(min_value=1, max_value=4)),
)
def test_event_prob_matches_direct_summation(include, exclude):
    if include & exclude:
        include = include - exclude
    rng = np.random.default_rng(79)
    larr = ensemble_from_edges(rng, 4, chain_edges(4))
    t = build_table(DppModel.from_ensemble(larr))
    ev = Event(sorted(include), sorted(exclude))
    direct = sum(
        t.probs[m]
        for m in range(16)
        if all(m >> (i - 1) & 1 for i in include)
        and not any(m >> (i - 1) & 1 for i in exclude)
    )
    assert event_prob(t, ev) == pytest.approx(direct, abs=1e-12)


def _random_law(rng, n, factored):
    """A normalized table built directly, not from a kernel: uniform random
    weights, or a product of independent bits with random marginals when
    factored."""
    if factored:
        probs = np.ones(1)
        for p in rng.uniform(0.1, 0.9, size=n):
            probs = np.concatenate([probs * (1.0 - p), probs * p])
    else:
        probs = rng.uniform(0.0, 1.0, size=2 ** n)
    return JointTable(n=n, probs=probs / probs.sum())


def _holds(mask, include, exclude):
    return all(mask >> (i - 1) & 1 for i in include) and not any(
        mask >> (i - 1) & 1 for i in exclude
    )


def _direct_residual(table, parts, include, exclude):
    """Max |joint - product of marginals| of the conditioned law, by a loop
    over every outcome mask."""
    outcomes = [m for m in range(2 ** table.n) if _holds(m, include, exclude)]
    z = sum(table.probs[m] for m in outcomes)
    parts = [p for p in parts if p]
    if len(parts) <= 1:
        return 0.0
    joint = {}
    margs = [{} for _ in parts]
    for m in outcomes:
        key = tuple(tuple(m >> (i - 1) & 1 for i in p) for p in parts)
        w = table.probs[m] / z
        joint[key] = joint.get(key, 0.0) + w
        for marg, sub in zip(margs, key):
            marg[sub] = marg.get(sub, 0.0) + w
    cells = itertools.product(*(itertools.product((0, 1), repeat=len(p)) for p in parts))
    return max(
        abs(joint.get(key, 0.0) - math.prod(marg.get(sub, 0.0) for marg, sub in zip(margs, key)))
        for key in cells
    )


def _direct_prob(table, include, exclude):
    return sum(table.probs[m] for m in range(2 ** table.n) if _holds(m, include, exclude))


class TestAgainstDirectSummation:
    def test_multiway_matches_direct_summation(self):
        rng = np.random.default_rng(241)
        seen = set()
        for case in range(120):
            n = 3 + case % 4
            table = _random_law(rng, n, factored=case % 3 == 0)
            m = int(rng.integers(2, 4))
            *parts, given_in, given_out = random_disjoint_sets(rng, n, m + 2, range(m))
            verdict = multiway_independence(table, parts, Event(given_in, given_out))
            ref = _direct_residual(table, parts, given_in, given_out)
            assert verdict.independent == (ref <= 1e-9)
            assert abs(verdict.residual - ref) <= 1e-15
            seen.add(verdict.independent)
        assert seen == {True, False}

    def test_event_independence_matches_direct_summation(self):
        rng = np.random.default_rng(251)
        seen = set()
        for case in range(120):
            n = 3 + case % 4
            table = _random_law(rng, n, factored=case % 3 == 0)
            fi, fe, si, se = random_disjoint_sets(rng, n, 4)
            both = event_prob(table, Event(union(fi, si), union(fe, se)))
            residual = abs(both - event_prob(table, Event(fi, fe)) * event_prob(table, Event(si, se)))
            p_both = _direct_prob(table, union(fi, si), union(fe, se))
            ref = abs(p_both - _direct_prob(table, fi, fe) * _direct_prob(table, si, se))
            assert (residual <= 1e-9) == (ref <= 1e-9)
            assert abs(residual - ref) <= 1e-15
            seen.add(residual <= 1e-9)
        assert seen == {True, False}


def _set_bookkeeping_multiway(table, parts, given, tol=1e-9):
    """multiway_independence on valid sets, with its axes worked out through
    Python sets and its view rebuilt on each call: the reference for the
    library's bit bookkeeping, which must run the same numpy reductions."""
    view = table.probs.reshape((2,) * table.n).T
    index = [slice(None)] * table.n
    for i in given.include:
        index[i - 1] = slice(1, 2)
    for i in given.exclude:
        index[i - 1] = slice(0, 1)
    conditioned = view[tuple(index)]
    z = float(conditioned.sum())
    axes = [{i - 1 for i in p} for p in parts if len(p)]
    if len(axes) <= 1:
        return OracleVerdict(True, 0.0)
    union = set().union(*axes)
    rest = tuple(k for k in range(table.n) if k not in union)
    joint = conditioned.sum(axis=rest, keepdims=True) / z
    product = None
    for own in axes:
        marginal = joint.sum(axis=tuple(union - own), keepdims=True)
        product = marginal if product is None else product * marginal
    gap = joint - product
    residual = float(np.abs(gap, out=gap).max())
    return OracleVerdict(residual <= tol, residual)


def test_multiway_bits_match_set_bookkeeping():
    """Verdicts and residuals, to the bit, on 1,000 seeded queries at
    n = 3..12: two or three parts, some empty, under no event, an inclusion,
    an exclusion or both, on factored laws and on others."""
    rng = np.random.default_rng(263)
    seen = set()
    for n in range(3, 13):
        for factored in (True, False):
            table = _random_law(rng, n, factored)
            for case in range(50):
                *parts, given_in, given_out = random_disjoint_sets(rng, n, 2 + case % 2 + 2)
                kind = case % 4
                given = [None, Event(given_in), Event([], given_out), Event(given_in, given_out)][kind]
                parts = [list(p) for p in parts]
                verdict = multiway_independence(table, parts, given)
                ref = _set_bookkeeping_multiway(table, parts, given or Event())
                assert verdict == ref
                assert verdict.residual.hex() == ref.residual.hex()
                seen.add((verdict.independent, kind, len(parts), not all(parts)))
    assert {s[0] for s in seen} == {True, False}
    assert {s[1] for s in seen} == {0, 1, 2, 3}
    assert {s[2] for s in seen} == {2, 3}
    assert {s[3] for s in seen} == {True, False}


class TestSampleArguments:
    @pytest.mark.parametrize(
        "count, seed, name",
        [(-1, None, "count"), (1.5, None, "count"), (True, None, "count"),
         (2, 1.5, "seed"), (2, -1, "seed"), (2, False, "seed"), (2, "7", "seed")],
    )
    def test_bad_count_or_seed_raises_dpp_error(self, demo_table, count, seed, name):
        with pytest.raises(DppError, match=f"^{name} must be a non-negative integer"):
            sample_many(demo_table, count, seed=seed)

    def test_numpy_ints_draw_as_python_ints(self, demo_table):
        ours = sample_many(demo_table, np.int64(20), seed=np.uint32(9))
        assert [s.members for s in ours] == [s.members for s in sample_many(demo_table, 20, seed=9)]
        assert sample_many(demo_table, 0, seed=0) == []


def _sliced_event_prob(table, include, exclude):
    """event_prob's reference: the n-axis view cut to 1 on included and to 0
    on excluded axes, each kept as a length-1 axis, then summed."""
    view = table.probs.reshape((2,) * table.n).T
    index = [slice(None)] * table.n
    for i in include:
        index[i - 1] = slice(1, 2)
    for i in exclude:
        index[i - 1] = slice(0, 1)
    return float(view[tuple(index)].sum())


@pytest.mark.parametrize("n", [13, 16, 18])
def test_bits_match_references_at_large_n(n):
    """multiway_independence against the set bookkeeping and event_prob
    against a kept-axis slice, to the bit, on 40 seeded queries at n: two or
    three parts, under every kind of event, on a factored law and another."""
    rng = np.random.default_rng(1009 + n)
    tables = [_random_law(rng, n, factored=True), _random_law(rng, n, factored=False)]
    seen = set()
    for case in range(40):
        table = tables[case % 2]
        m = 2 + case // 2 % 2
        *parts, given_in, given_out = random_disjoint_sets(rng, n, m + 2, range(m))
        kind = case // 4 % 4
        given = [Event(), Event(given_in), Event([], given_out), Event(given_in, given_out)][kind]
        verdict = multiway_independence(table, parts, given)
        ref = _set_bookkeeping_multiway(table, parts, given)
        assert verdict.residual.hex() == ref.residual.hex()
        assert verdict == ref
        p = event_prob(table, given)
        assert p.hex() == _sliced_event_prob(table, given.include, given.exclude).hex()
        seen.add((verdict.independent, kind, m))
    assert {s[0] for s in seen} == {True, False}
    assert {s[1] for s in seen} == {0, 1, 2, 3}
    assert {s[2] for s in seen} == {2, 3}


class TestQueryMemos:
    def test_second_replay_runs_no_bit_walk(self, monkeypatch):
        """The axis tuples and the event index are kept per mask, so a replay
        on masks seen before walks no mask's bits."""
        calls = []
        inner = kernels._bits

        def counted(mask):
            calls.append(mask)
            return inner(mask)

        monkeypatch.setattr(kernels, "_bits", counted)
        rng = np.random.default_rng(271)
        table = _random_law(rng, 9, factored=False)
        parts, given = [[1, 4], [2, 7], [9]], Event([3, 5], [8])
        for memo in (oracle._within, oracle._event_index):
            memo.cache_clear()
        first = multiway_independence(table, parts, given), event_prob(table, given)
        assert calls
        calls.clear()
        again = multiway_independence(table, parts, given), event_prob(table, given)
        assert calls == []
        assert again[0].residual.hex() == first[0].residual.hex()
        assert again[1].hex() == first[1].hex()

    def test_every_memo_is_bounded(self):
        memos = {name: f for name, f in vars(oracle).items() if hasattr(f, "cache_info")}
        assert {"_tril", "_event_index", "_within"} <= set(memos)
        for name, f in memos.items():
            maxsize = f.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize < 1 << 20, name

    def test_positions_within_a_mask(self):
        assert oracle._within(0b1011010, 0b1001000) == (1, 3)
        assert oracle._within(0b111, 0) == ()
        full = (1 << 20) - 1
        assert oracle._within(full ^ 0b101, full ^ 0b111) == tuple(range(1, 18))
