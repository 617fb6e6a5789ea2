import numpy as np
import pytest

import dppci.graphs
from dppci import (
    DEFAULT_ZERO_TOL,
    DppModel,
    EmptyQuerySetError,
    Event,
    GraphVerdict,
    IndexSet,
    InducedGraph,
    InvalidToleranceError,
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


class TestGraphMemo:
    """The ensemble kernel's matrix carries its induced graph, one per zero_tol."""

    @pytest.fixture
    def builds(self, monkeypatch):
        made = []

        def counting(**fields):
            made.append(fields["tolerance_used"])
            return InducedGraph(**fields)

        monkeypatch.setattr(dppci.graphs, "InducedGraph", counting)
        return made

    @staticmethod
    def chain_model(n=6):
        # Scaled so that its largest entry times 1e308 overflows.
        rng = np.random.default_rng(227)
        return DppModel.from_ensemble(10.0 * ensemble_from_edges(rng, n, chain_edges(n)))

    def test_one_build_per_kernel_and_tolerance(self, builds):
        model = self.chain_model()
        for c in range(2, 6):
            assert graph_certified_ci(model, [1], [6], c=[c]).is_certified
            assert not graph_certified_ci(model, [c - 1], [c + 1]).is_certified
            assert graph_certified_multiway_ci(model, [[1], [c + 1], []], c=[c], d=[]).is_certified
        assert len(builds) == 1
        for _ in range(3):
            separates(induced_graph(model.ensemble, 1e-3), [1], [3], [2])
        assert len(builds) == 2
        assert induced_graph(model.ensemble) is induced_graph(model.ensemble)
        assert induced_graph(model.ensemble, 1e-3).tolerance_used == builds[1]
        assert len(builds) == 2
        graph_certified_ci(self.chain_model(), [1], [6], c=[3])  # another kernel, its own graph
        assert len(builds) == 3

    @pytest.mark.parametrize(
        "zero_tol",
        [float("nan"), -1.0, -1, float("inf"), 1e308, True, False, np.True_]
        + [None, "1e-9", 1j, np.array(1e-9), np.array([1e-9])],
    )
    def test_warm_cache_still_checks_tolerance(self, builds, zero_tol):
        """The memo holds graphs at 1 and 0 too, which a bool equals as a key,
        and at 1e-9, which a 0-d array equals."""
        model = self.chain_model()
        graph_certified_ci(model, [1], [6], c=[3])
        induced_graph(model.ensemble, 1)
        induced_graph(model.ensemble, 0)
        for _ in range(2):  # the same object twice, so a NaN key could hit
            with pytest.raises(InvalidToleranceError):
                induced_graph(model.ensemble, zero_tol)
            with pytest.raises(InvalidToleranceError):
                separates(induced_graph(model.ensemble, zero_tol), [1], [6], [3])
        assert len(builds) == 3

    def test_int_tolerance_reads_the_memo(self, builds):
        """An int zero_tol is a key like the equal float: one graph for 0 and 0.0."""
        model = self.chain_model()
        g = induced_graph(model.ensemble, 0)
        assert induced_graph(model.ensemble, 0) is g
        assert induced_graph(model.ensemble, 0.0) is g
        assert separates(induced_graph(model.ensemble, 0), [1], [6], [3])
        assert len(builds) == 1

    @pytest.mark.parametrize(
        "scalar", [np.float32(1e-3), np.float64(1e-3), np.int64(0)], ids=["float32", "float64", "int64"]
    )
    def test_numpy_tolerance_reads_the_memo(self, builds, scalar):
        """A numpy scalar zero_tol is a key like the equal Python float."""
        model = self.chain_model()
        g = induced_graph(model.ensemble, scalar)
        assert induced_graph(model.ensemble, scalar) is g
        assert induced_graph(model.ensemble, float(scalar)) is g
        assert len(builds) == 1

    def test_plain_matrix_is_not_cached(self, builds):
        """The kernel's SymMatrix shares the kernel's memo; an array or a list
        is a new SymMatrix each call, so it is rebuilt."""
        model = self.chain_model()
        on_kernel = induced_graph(model.ensemble)
        assert induced_graph(model.ensemble.matrix) is on_kernel
        for plain in (model.ensemble.array, model.ensemble.array.tolist()):
            g = induced_graph(plain)
            assert g is not on_kernel
            assert g.edges == on_kernel.edges == frozenset(chain_edges(6))
            assert g.adjacency == on_kernel.adjacency
            assert g.tolerance_used == on_kernel.tolerance_used
        assert len(builds) == 3


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
        assert report.passed is True and type(report.threshold) is float

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

    def test_empty_side_rejected(self):
        with pytest.raises(EmptyQuerySetError):
            separation_zero_block_report(np.diag([1.0, 2.0, 3.0]), [], [2])

    def test_schur_residual_consistent_with_direct_computation(self):
        rng = np.random.default_rng(233)
        p = ensemble_from_edges(rng, 6, random_tree_edges(rng, 6))
        m = (np.linalg.inv(p) + np.linalg.inv(p).T) / 2.0
        report = separation_zero_block_report(m, [1], [5, 6], [2, 3, 4])
        s = schur_complement(SymMatrix(m), IndexSet([2, 3, 4]))
        assert report.residual == pytest.approx(
            np.max(np.abs(s.array[np.ix_([0], [1, 2])])), abs=1e-15
        )

def _components_meet_two_parts(n, edges, parts, c):
    """Reference for the certificate: whether some component of G - C holds
    vertices of two different parts, by a DFS over the edge list."""
    adj = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    owner = {v: k for k, p in enumerate(parts) for v in p}
    blocked = set(c)
    done = set()
    for root in range(1, n + 1):
        if root in blocked or root in done:
            continue
        owners, stack = set(), [root]
        done.add(root)
        while stack:
            v = stack.pop()
            if v in owner:
                owners.add(owner[v])
            for w in adj[v]:
                if w not in blocked and w not in done:
                    done.add(w)
                    stack.append(w)
        if len(owners) > 1:
            return True
    return False


class TestCertificateAgainstComponents:
    def test_random_graphs_match_component_labels(self):
        rng = np.random.default_rng(257)
        outcomes = set()
        for case in range(200):
            n = 4 + case % 5
            edges = [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.random() < 0.3
            ]
            model = DppModel.from_ensemble(ensemble_from_edges(rng, n, edges))
            m = 2 + case % 3
            assign = rng.integers(0, m + 2, size=n)
            parts = [IndexSet(np.flatnonzero(assign == k) + 1) for k in range(m)]
            c = IndexSet(np.flatnonzero(assign == m) + 1)
            expected = not _components_meet_two_parts(n, edges, parts, c)
            verdict = graph_certified_multiway_ci(model, parts, c=c)
            assert verdict.is_certified == expected
            if m == 2 and all(parts):
                g = induced_graph(model.ensemble.matrix)
                assert separates(g, parts[0], parts[1], c) == expected
            if m >= 3 and sum(1 for p in parts if p) >= 3:
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestWideGraphs:
    """Graphs whose masks cross 64 bits and whose last packed byte is partly
    filled, checked against references that loop over the matrix."""

    @pytest.mark.parametrize("n", [70, 130])
    def test_masks_match_matrix_reference(self, n):
        rng = np.random.default_rng(n)
        far = {(1, n), (2, 66), (n - 65, n - 1)}
        while len(far) < 8:
            i, j = sorted(int(v) for v in rng.choice(np.arange(1, n + 1), 2, replace=False))
            if j - i > 1:
                far.add((i, j))
        larr = ensemble_from_edges(rng, n, chain_edges(n) + sorted(far))
        thr = DEFAULT_ZERO_TOL * float(np.max(np.abs(larr)))
        ref = {
            (i + 1, j + 1) for i in range(n) for j in range(i + 1, n) if abs(larr[i, j]) > thr
        }
        g = induced_graph(larr)
        masks = g.adjacency
        assert masks == tuple(
            sum(1 << (j - 1) for j in range(1, n + 1) if (min(i, j), max(i, j)) in ref)
            for i in range(1, n + 1)
        )
        assert g.edges == ref

        # Cut the chain at p and q, put one part on each side, and block a
        # random half of the far edges' endpoints, so both verdicts occur.
        model = DppModel.from_ensemble(larr)
        outcomes = {2: set(), 3: set()}
        for _ in range(30):
            p, q = int(rng.integers(3, n // 2)), int(rng.integers(n // 2 + 2, n - 1))
            c = {p, q} | {v for e in far for v in e if rng.random() < 0.5}
            spans = [range(1, p), range(p + 1, q), range(q + 1, n + 1)]
            parts = []
            for span in spans:
                free = [v for v in span if v not in c] or [max(span)]
                picked = rng.choice(free, size=min(3, len(free)), replace=False)
                parts.append(IndexSet(int(v) for v in picked))
            c = IndexSet(c - set().union(*(set(s) for s in parts)))
            for k in (2, 3):
                expected = not _components_meet_two_parts(n, sorted(ref), parts[:k], c)
                assert graph_certified_multiway_ci(model, parts[:k], c=c).is_certified == expected
                if k == 2:
                    assert separates(g, parts[0], parts[1], c) == expected
                outcomes[k].add(expected)
        assert outcomes == {2: {True, False}, 3: {True, False}}
