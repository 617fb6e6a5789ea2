import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppci import (
    ConditioningEventNegligibleError,
    DppModel,
    Event,
    GroundSetTooLargeError,
    IndexSet,
    JointTable,
    OverlappingSetsError,
    build_table,
    event_independence,
    event_prob,
    mixed_prob,
    multiway_independence,
    process_independence,
    sample,
    sample_many,
)
from generators import block_diag_ensemble, chain_edges, ensemble_from_edges, star_edges

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
        verdict = event_independence(demo_table, Event([1], [2]), Event([3], []))
        assert verdict.independent
        assert verdict.residual < 1e-12

    def test_demo_inclusion_events_do_not_factor(self, demo_table):
        verdict = event_independence(demo_table, Event([1], []), Event([3], []))
        assert not verdict.independent

    def test_shared_elements_rejected(self, demo_table):
        with pytest.raises(OverlappingSetsError):
            event_independence(demo_table, Event([1], []), Event([1], []))


class TestSample:
    def test_point_mass(self):
        probs = np.zeros(8)
        probs[5] = 1.0  # {1, 3}
        t = JointTable(n=3, probs=probs)
        for seed in range(5):
            assert sample(t, seed=seed).members == (1, 3)

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
