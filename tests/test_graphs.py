import numpy as np
import pytest

from dppci import (
    DppModel,
    EmptyQuerySetError,
    Event,
    GraphVerdict,
    IndexSet,
    OverlappingSetsError,
    SpectrumOutOfRangeError,
    SymMatrix,
    build_table,
    graph_certified_ci,
    graph_certified_multiway_ci,
    induced_graph,
    multiway_independence,
    process_independence,
    schur_complement,
    separates,
    separation_zero_block_report,
)
from generators import (
    block_clique_edges,
    block_diag_ensemble,
    chain_edges,
    ensemble_from_edges,
    non_necessity_witness,
    random_tree_edges,
    star_edges,
)

DEMO_K = np.array([
    [0.05, 0.0, 0.1],
    [0.0, 0.8, 0.2],
    [0.1, 0.2, 0.6],
])


class TestInducedGraph:
    def test_diagonal_matrix_edgeless(self):
        g = induced_graph(np.diag([1.0, 2.0, 3.0]))
        assert g.edges == frozenset()

    def test_tridiagonal_is_path(self):
        m = np.eye(4) + np.diag([0.3, 0.3, 0.3], 1) + np.diag([0.3, 0.3, 0.3], -1)
        g = induced_graph(m)
        assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})

    def test_demo_matrix_pattern(self):
        g = induced_graph(DEMO_K)
        assert g.edges == frozenset({(1, 3), (2, 3)})

    def test_threshold_scales_with_matrix(self):
        m = np.array([[1.0, 1e-12], [1e-12, 1.0]])
        assert induced_graph(m).edges == frozenset()
        assert induced_graph(m * 1e6).edges == frozenset()

    def test_neighbors(self):
        g = induced_graph(DEMO_K)
        assert g.neighbors(3) == frozenset({1, 2})
        assert g.neighbors(1) == frozenset({3})


class TestSeparates:
    def test_path_examples(self):
        g = induced_graph(np.eye(3) + np.diag([0.5, 0.5], 1) + np.diag([0.5, 0.5], -1))
        assert separates(g, [1], [3], [2])
        assert not separates(g, [1], [3], [])

    def test_demo_graph(self):
        g = induced_graph(DEMO_K)
        assert separates(g, [1], [2], [3])

    def test_disconnected_needs_no_separator(self):
        rng = np.random.default_rng(149)
        larr, spans = block_diag_ensemble(rng, [2, 2])
        g = induced_graph(larr)
        assert separates(g, spans[0], spans[1], [])

    def test_empty_query_rejected(self):
        g = induced_graph(DEMO_K)
        with pytest.raises(EmptyQuerySetError):
            separates(g, [], [2], [3])

    def test_overlap_rejected(self):
        g = induced_graph(DEMO_K)
        with pytest.raises(OverlappingSetsError):
            separates(g, [1], [2], [1])


class TestGraphCertificates:
    def test_chain_certified_and_oracle_confirms(self):
        rng = np.random.default_rng(151)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 3, chain_edges(3)))
        verdict = graph_certified_ci(model, [1], [3], c=[2])
        assert verdict is GraphVerdict.CERTIFIED_INDEPENDENT
        assert verdict.is_certified
        oracle = process_independence(build_table(model), [1], [3], Event([], [2]))
        assert oracle.independent

    def test_dense_never_certifies_nontrivially(self):
        rng = np.random.default_rng(157)
        model = DppModel.from_ensemble(
            ensemble_from_edges(rng, 4, block_clique_edges([4]))
        )
        for a in range(1, 5):
            for b in range(1, 5):
                if a == b:
                    continue
                rest = IndexSet(set(range(1, 5)) - {a, b})
                for c in ([], list(rest)):
                    verdict = graph_certified_ci(model, [a], [b], c=c)
                    assert verdict is GraphVerdict.NOT_CERTIFIED

    def test_block_diagonal_certified_without_conditioning(self):
        rng = np.random.default_rng(163)
        larr, spans = block_diag_ensemble(rng, [2, 3])
        model = DppModel.from_ensemble(larr)
        assert graph_certified_ci(model, spans[0], spans[1]).is_certified

    def test_chain4_with_inclusion_conditioning(self):
        rng = np.random.default_rng(167)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 4, chain_edges(4)))
        verdict = graph_certified_ci(model, [1], [3], c=[2], d=[4])
        assert verdict.is_certified
        oracle = process_independence(build_table(model), [1], [3], Event([4], [2]))
        assert oracle.independent

    def test_d_empty_reduces_to_plain_form(self):
        rng = np.random.default_rng(173)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 4, chain_edges(4)))
        with_d = graph_certified_ci(model, [1], [4], c=[2], d=[])
        without = graph_certified_ci(model, [1], [4], c=[2])
        assert with_d == without

    def test_unseparated_chain_not_certified_and_oracle_dependent(self):
        rng = np.random.default_rng(179)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 3, chain_edges(3)))
        verdict = graph_certified_ci(model, [1], [3], c=[], d=[2])
        assert verdict is GraphVerdict.NOT_CERTIFIED
        oracle = process_independence(build_table(model), [1], [3], Event([2], []))
        assert not oracle.independent

    def test_empty_side_certified_trivially(self):
        rng = np.random.default_rng(181)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 3, chain_edges(3)))
        assert graph_certified_ci(model, [], [2]).is_certified


class TestMultiwayCertificates:
    def test_star_leaves_given_center(self):
        rng = np.random.default_rng(191)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 4, star_edges(4)))
        verdict = graph_certified_multiway_ci(model, [[2], [3], [4]], c=[1])
        assert verdict.is_certified

    def test_two_parts_match_pairwise_form(self):
        rng = np.random.default_rng(193)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 4, chain_edges(4)))
        for c in ([2], [3], [2, 3]):
            lhs = graph_certified_multiway_ci(model, [[1], [4]], c=c)
            rhs = graph_certified_ci(model, [1], [4], c=c)
            assert lhs == rhs

    def test_empty_part_dropped(self):
        rng = np.random.default_rng(193)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 4, chain_edges(4)))
        for c in ([], [2], [3]):
            with_empty = graph_certified_multiway_ci(model, [[1], [4], []], c=c)
            assert with_empty == graph_certified_multiway_ci(model, [[1], [4]], c=c)
        assert graph_certified_multiway_ci(model, [[1, 2], []]).is_certified

    def test_star5_oracle_three_way_factorization(self):
        rng = np.random.default_rng(197)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 5, star_edges(5)))
        verdict = graph_certified_multiway_ci(model, [[2], [3], [4], [5]], c=[1])
        assert verdict.is_certified
        oracle = multiway_independence(
            build_table(model), [[2], [3], [4], [5]], Event([], [1])
        )
        assert oracle.independent
        assert oracle.residual < 1e-10

    def test_center_not_conditioned_not_certified(self):
        rng = np.random.default_rng(199)
        model = DppModel.from_ensemble(ensemble_from_edges(rng, 4, star_edges(4)))
        verdict = graph_certified_multiway_ci(model, [[2], [3], [4]], c=[])
        assert verdict is GraphVerdict.NOT_CERTIFIED


class TestGraphMatrixConsistency:
    def test_l_graph_matches_inverse_of_i_minus_k(self):
        rng = np.random.default_rng(211)
        for edges, n in (
            (chain_edges(5), 5),
            (star_edges(5), 5),
            (random_tree_edges(rng, 6), 6),
        ):
            larr = ensemble_from_edges(rng, n, edges)
            model = DppModel.from_ensemble(larr)
            inv = np.linalg.inv(np.eye(n) - model.marginal.array)
            g_l = induced_graph(model.ensemble.matrix)
            g_inv = induced_graph((inv + inv.T) / 2.0)
            assert g_l.edges == g_inv.edges == frozenset(
                tuple(sorted(e)) for e in edges
            )


class TestNonNecessityWitness:
    def test_oracle_independent_but_not_separated(self):
        karr = non_necessity_witness()
        model = DppModel.from_marginal(karr)
        oracle = process_independence(build_table(model), [1], [2], Event([], [3]))
        assert oracle.independent
        g = induced_graph(model.ensemble.matrix)
        assert not separates(g, [1], [2], [3])
        assert graph_certified_ci(model, [1], [2], c=[3]) is GraphVerdict.NOT_CERTIFIED


class TestSchurZeroReport:
    def test_inverse_chain_structure(self):
        rng = np.random.default_rng(223)
        p = ensemble_from_edges(rng, 5, chain_edges(5))
        m = np.linalg.inv(p)
        report = separation_zero_block_report((m + m.T) / 2.0, [1], [4, 5], [2, 3])
        assert report.separated
        assert report.passed
        assert report.residual <= report.threshold

    def test_block_diagonal_exact_zero(self):
        rng = np.random.default_rng(227)
        marr, spans = block_diag_ensemble(rng, [2, 2])
        report = separation_zero_block_report(marr, spans[0], spans[1], [])
        assert report.separated
        assert report.residual == 0.0
        assert report.passed

    def test_unseparated_makes_no_claim(self):
        rng = np.random.default_rng(229)
        p = ensemble_from_edges(rng, 4, chain_edges(4))
        m = np.linalg.inv(p)
        report = separation_zero_block_report((m + m.T) / 2.0, [1], [3], [4])
        assert not report.separated
        assert report.passed is None

    def test_requires_positive_definite(self):
        with pytest.raises(SpectrumOutOfRangeError):
            separation_zero_block_report(np.diag([1.0, -1.0, 2.0]), [1], [2], [3])

    def test_schur_residual_consistent_with_direct_computation(self):
        rng = np.random.default_rng(233)
        p = ensemble_from_edges(rng, 6, random_tree_edges(rng, 6))
        m = (np.linalg.inv(p) + np.linalg.inv(p).T) / 2.0
        report = separation_zero_block_report(m, [1], [5, 6], [2, 3, 4])
        s = schur_complement(SymMatrix(m), IndexSet([2, 3, 4]))
        assert report.residual == pytest.approx(
            np.max(np.abs(s.array[np.ix_([0], [1, 2])])), abs=1e-15
        )