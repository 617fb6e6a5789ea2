import inspect

import numpy as np
import pytest

from dppci import (
    CiQuery,
    DppModel,
    Event,
    IndexSet,
    InvalidToleranceError,
    OverlappingSetsError,
    SymMatrix,
    build_table,
    check_ci_given_inclusion,
    check_conditional_independence,
    check_marginal_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    counterexample_demo,
    event_prob,
    graph_certified_ci,
    graph_certified_multiway_ci,
    induced_graph,
    k_from_l,
    l_from_k,
    multiway_independence,
    process_independence,
    validate_ensemble,
    validate_marginal,
)
from generators import (
    block_diag_marginal,
    chain_edges,
    ensemble_from_edges,
    perturb_block,
    precision_structured_marginal,
    random_disjoint_sets,
    random_model,
    random_tree_edges,
    zero_block_ensemble,
)

DEMO_K = [
    [0.05, 0.0, 0.1],
    [0.0, 0.8, 0.2],
    [0.1, 0.2, 0.6],
]


@pytest.fixture(scope="module")
def demo_model():
    return DppModel.from_marginal(DEMO_K)


class TestMarginalIndependence:
    def test_demo_zero_entry(self, demo_model):
        verdict = check_marginal_independence(demo_model, [1], [2])
        assert verdict.independent
        assert verdict.criterion_value == 0.0

    def test_demo_nonzero_entry(self, demo_model):
        verdict = check_marginal_independence(demo_model, [1], [3])
        assert not verdict.independent
        assert verdict.criterion_value == pytest.approx(0.1)

    def test_diagonal_kernel_always_independent(self):
        model = DppModel.from_marginal(np.diag([0.2, 0.5, 0.7]))
        for a, b in (([1], [2]), ([1, 2], [3]), ([2], [1, 3])):
            assert check_marginal_independence(model, a, b).independent

    def test_empty_side_trivial(self, demo_model):
        verdict = check_marginal_independence(demo_model, [], [1])
        assert verdict.independent
        assert verdict.criterion_value == 0.0
        assert "trivial" in verdict.criterion

    def test_overlap_rejected(self, demo_model):
        with pytest.raises(OverlappingSetsError):
            check_marginal_independence(demo_model, [1], [1, 2])

    def test_verdict_invariant(self, demo_model):
        for a, b in (([1], [2]), ([1], [3]), ([1, 2], [3])):
            v = check_marginal_independence(demo_model, a, b)
            assert v.independent == (v.criterion_value <= v.tolerance_used)


class TestGivenInclusion:
    def test_empty_c_reduces_to_marginal(self, demo_model):
        with_c = check_ci_given_inclusion(demo_model, [1], [2], [])
        plain = check_marginal_independence(demo_model, [1], [2])
        assert with_c.independent == plain.independent
        assert with_c.criterion_value == plain.criterion_value

    def test_demo_conditioning_creates_dependence(self, demo_model):
        verdict = check_ci_given_inclusion(demo_model, [1], [2], [3])
        assert not verdict.independent
        assert verdict.criterion_value == pytest.approx(1.0 / 30.0, abs=1e-12)

    def test_constructed_schur_zero_certifies(self):
        rng = np.random.default_rng(83)
        for trial in range(10):
            karr, a, b, c = precision_structured_marginal(rng, 1, 2, 3)
            model = DppModel.from_marginal(karr)
            verdict = check_ci_given_inclusion(model, a, b, c)
            assert verdict.independent
            oracle = process_independence(build_table(model), a, b, Event(c, []))
            assert oracle.independent

    def test_perturbed_negative_fails(self):
        rng = np.random.default_rng(89)
        karr, a, b, c = precision_structured_marginal(rng, 1, 2, 3)
        bumped = perturb_block(rng, karr, a, b, 1e-4)
        model = DppModel.from_marginal(bumped)
        verdict = check_ci_given_inclusion(model, a, b, c)
        assert not verdict.independent
        oracle = process_independence(build_table(model), a, b, Event(c, []))
        assert not oracle.independent


class TestGivenExclusion:
    def test_empty_c_matches_marginal_verdict(self, demo_model):
        for a, b in (([1], [2]), ([1], [3])):
            lhs = check_conditional_independence(demo_model, CiQuery(a, b, given_out=[]))
            rhs = check_marginal_independence(demo_model, a, b)
            assert lhs.independent == rhs.independent

    def test_chain_given_middle(self):
        rng = np.random.default_rng(97)
        larr = ensemble_from_edges(rng, 3, chain_edges(3))
        model = DppModel.from_ensemble(larr)
        verdict = check_conditional_independence(model, CiQuery([1], [3], given_out=[2]))
        assert verdict.independent
        oracle = process_independence(build_table(model), [1], [3], Event([], [2]))
        assert oracle.independent

    def test_demo_matches_oracle(self, demo_model):
        verdict = check_conditional_independence(demo_model, CiQuery([1], [3], given_out=[2]))
        oracle = process_independence(
            build_table(demo_model), [1], [3], Event([], [2])
        )
        assert verdict.independent == oracle.independent

    def test_zero_block_ensemble_certifies(self):
        rng = np.random.default_rng(101)
        for trial in range(10):
            larr, a, b, c = zero_block_ensemble(rng, 1, 1, 3)
            model = DppModel.from_ensemble(larr)
            verdict = check_conditional_independence(model, CiQuery(a, b, given_out=c))
            assert verdict.independent
            oracle = process_independence(build_table(model), a, b, Event([], c))
            assert oracle.independent


class TestPairwiseGivenRest:
    def test_diagonal_included(self):
        model = DppModel.from_marginal(np.diag([0.2, 0.5, 0.7]))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            assert check_pairwise_given_rest_included(model, i, j).independent

    def test_demo_matches_schur_conclusion(self, demo_model):
        pairwise = check_pairwise_given_rest_included(demo_model, 1, 2)
        schur = check_ci_given_inclusion(demo_model, [1], [2], [3])
        assert pairwise.independent == schur.independent
        assert not pairwise.independent

    def test_included_agrees_with_oracle(self):
        rng = np.random.default_rng(103)
        for trial in range(10):
            n = int(rng.integers(3, 7))
            model = random_model(rng, n)
            i, j = (rng.permutation(n)[:2] + 1).tolist()
            rest = IndexSet(set(range(1, n + 1)) - {i, j})
            verdict = check_pairwise_given_rest_included(model, i, j)
            oracle = process_independence(build_table(model), [i], [j], Event(rest, []))
            assert verdict.independent == oracle.independent

    def test_pairwise_inclusion_matches_general_schur_form(self):
        rng = np.random.default_rng(107)
        for trial in range(30):
            n = int(rng.integers(3, 8))
            model = random_model(rng, n)
            i, j = (rng.permutation(n)[:2] + 1).tolist()
            rest = IndexSet(set(range(1, n + 1)) - {i, j})
            lhs = check_pairwise_given_rest_included(model, i, j)
            rhs = check_ci_given_inclusion(model, [i], [j], rest)
            assert lhs.independent == rhs.independent

    def test_excluded_tridiagonal(self):
        rng = np.random.default_rng(109)
        larr = ensemble_from_edges(rng, 3, chain_edges(3))
        model = DppModel.from_ensemble(larr)
        assert check_pairwise_given_rest_excluded(model, 1, 3).independent
        assert not check_pairwise_given_rest_excluded(model, 1, 2).independent
        t = build_table(model)
        assert process_independence(t, [1], [3], Event([], [2])).independent
        assert not process_independence(t, [1], [2], Event([], [3])).independent

    def test_excluded_diagonal(self):
        model = DppModel.from_ensemble(np.diag([1.0, 2.0, 3.0]))
        for i, j in ((1, 2), (2, 3)):
            assert check_pairwise_given_rest_excluded(model, i, j).independent

    def test_same_index_rejected(self, demo_model):
        with pytest.raises(OverlappingSetsError):
            check_pairwise_given_rest_included(demo_model, 2, 2)


class TestDispatch:
    def test_trivial_event_routes_to_marginal(self, demo_model):
        q = CiQuery([1], [3])
        verdict = check_conditional_independence(demo_model, q)
        assert verdict.criterion == "max |K[A,B]|"

    def test_overlapping_query_rejected(self):
        with pytest.raises(OverlappingSetsError):
            CiQuery([1], [2], given_in=[1])

    def test_mixed_conditioning_agrees_with_oracle(self):
        rng = np.random.default_rng(113)
        for trial in range(12):
            n = int(rng.integers(4, 8))
            model = random_model(rng, n)
            perm = list(rng.permutation(n) + 1)
            q = CiQuery(perm[:1], perm[1:2], given_in=perm[2:3], given_out=perm[3:4])
            verdict = check_conditional_independence(model, q)
            oracle = process_independence(
                build_table(model), q.a, q.b, q.given
            )
            assert verdict.independent == oracle.independent
            assert verdict.criterion == "max |K^(in|out)[A,B]|"

    def test_mixed_conditioning_on_block_structure(self):
        rng = np.random.default_rng(127)
        karr, spans = block_diag_marginal(rng, [3, 3])
        model = DppModel.from_marginal(karr)
        q = CiQuery([1], [4], given_in=[2], given_out=[5])
        verdict = check_conditional_independence(model, q)
        assert verdict.independent
        oracle = process_independence(build_table(model), [1], [4], Event([2], [5]))
        assert oracle.independent


def _event_residual(table, first, second):
    """|Pr(first and second) - Pr(first) Pr(second)| for events on disjoint elements."""
    both = Event(first.include.union(second.include), first.exclude.union(second.exclude))
    return abs(event_prob(table, both) - event_prob(table, first) * event_prob(table, second))


class TestBlockDiagonalFamilies:
    def test_marginal_positive_and_perturbed_negative(self):
        rng = np.random.default_rng(131)
        karr, spans = block_diag_marginal(rng, [2, 3])
        model = DppModel.from_marginal(karr)
        assert check_marginal_independence(model, spans[0], spans[1]).independent
        bumped = DppModel.from_marginal(perturb_block(rng, karr, spans[0], spans[1], 1e-4))
        assert not check_marginal_independence(bumped, spans[0], spans[1]).independent

    def test_all_event_forms_match_zero_block(self):
        rng = np.random.default_rng(137)
        karr, spans = block_diag_marginal(rng, [2, 2])
        a, b = spans
        for karr_case, expected in (
            (karr, True),
            (perturb_block(rng, karr, a, b, 3e-3), False),
        ):
            model = DppModel.from_marginal(karr_case)
            t = build_table(model)
            forms = [
                (Event(a, []), Event(b, [])),
                (Event(a, []), Event([], b)),
                (Event([], a), Event([], b)),
            ]
            event_ok = all(_event_residual(t, e1, e2) <= 1e-9 for e1, e2 in forms)
            process_ok = process_independence(t, a, b).independent
            kernel_ok = check_marginal_independence(model, a, b).independent
            assert kernel_ok == expected
            assert process_ok == expected
            assert event_ok == expected

    def test_complement_symmetry(self):
        rng = np.random.default_rng(139)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            model = random_model(rng, n)
            comp = DppModel.from_marginal(np.eye(n) - model.marginal.array)
            assign = rng.integers(0, 3, size=n)
            a = IndexSet((np.where(assign == 0)[0] + 1).tolist())
            b = IndexSet((np.where(assign == 1)[0] + 1).tolist())
            lhs = check_marginal_independence(model, a, b)
            rhs = check_marginal_independence(comp, a, b)
            assert lhs.independent == rhs.independent


class TestCounterexample:
    def test_report_passes(self):
        report = counterexample_demo()
        assert report.passed

    def test_demo_values(self):
        report = counterexample_demo()
        assert report.joint_prob == pytest.approx(0.006, abs=1e-12)
        assert report.left_prob == pytest.approx(0.01, abs=1e-12)
        assert report.right_prob == pytest.approx(0.6, abs=1e-12)
        assert report.factorization_residual < 1e-12
        assert report.block_max_abs == pytest.approx(0.2)

    def test_processes_still_dependent(self):
        report = counterexample_demo()
        assert not report.processes_verdict.independent
        assert report.oracle_residual > 1e-9

    def test_text_and_dict_forms(self):
        report = counterexample_demo()
        text = report.to_text()
        assert "0.006" in text
        assert "0.01" in text
        assert "PASS" in text
        d = report.as_dict()
        assert d["passed"] is True
        assert d["events_factor"] is True
        assert d["processes_independent"] is False


@pytest.mark.parametrize(
    "tol",
    [float("nan"), float("inf"), float("-inf"), -1.0, True, False, np.True_]
    + [None, "1e-9", 1j, np.array(1e-9), np.array([1e-9])]
    + [pytest.param(10**400, id="int-past-float")],
)
def test_invalid_tolerance_rejected(tol):
    """A tolerance that is not a finite non-negative real number would decide
    every query one way (a NaN zero_tol certified a pair whose oracle residual
    is 3e-3, and True, read as 1.0, called dependent pairs independent), or
    come back as an array verdict, so each entry point that takes one refuses
    it. A bool, a string, a complex and an array are not numbers here, and
    an int too large for a float is not finite."""
    model = random_model(np.random.default_rng(61), 4)
    calls = [
        lambda: check_conditional_independence(model, CiQuery([1], [2]), zero_tol=tol),
        lambda: check_conditional_independence(model, CiQuery([1], [2], given_out=[3]), zero_tol=tol),
        lambda: induced_graph(model.ensemble, tol),
        lambda: SymMatrix(model.marginal.array, sym_tol=tol),
        lambda: DppModel.from_marginal(np.diag([0.5, 1.5]), tol),
        lambda: DppModel.from_marginal(model.marginal.array, tol),
        lambda: DppModel.from_ensemble(model.ensemble.array, tol),
        lambda: validate_marginal(model.marginal, tol),
        lambda: validate_ensemble(model.ensemble.array, tol),
        lambda: l_from_k(model.marginal, tol),
        lambda: k_from_l(model.ensemble, tol),
        lambda: check_conditional_independence(model, CiQuery([1], [2], given_in=[3]), eps_spec=tol),
        lambda: check_conditional_independence(model, CiQuery([1], [2]), eps_spec=tol),
    ]
    for call in calls:
        with pytest.raises(InvalidToleranceError):
            call()


def test_overflowing_threshold_rejected():
    """zero_tol = 1e308 is finite, but the threshold it scales to on a matrix
    whose largest entry is 2 overflows to inf, which would read every entry as
    zero; the graph refuses it, on the kernel and on its matrix."""
    model = DppModel.from_ensemble([[2.0, 0.4, 0.0], [0.4, 2.0, 0.4], [0.0, 0.4, 2.0]])
    for m in (model.ensemble, model.ensemble.array):
        with pytest.raises(InvalidToleranceError, match="non-finite threshold"):
            induced_graph(m, 1e308)


# Each shortcut, as (call through it, call through its general form), both of
# (model, table, A, B, C).
SHORTCUTS = {
    check_marginal_independence: (
        lambda m, t, a, b, c: check_marginal_independence(m, a, b),
        lambda m, t, a, b, c: check_conditional_independence(m, CiQuery(a, b)),
    ),
    check_ci_given_inclusion: (
        lambda m, t, a, b, c: check_ci_given_inclusion(m, a, b, c),
        lambda m, t, a, b, c: check_conditional_independence(m, CiQuery(a, b, given_in=c)),
    ),
    graph_certified_ci: (
        lambda m, t, a, b, c: graph_certified_ci(m, a, b, c),
        lambda m, t, a, b, c: graph_certified_multiway_ci(m, [a, b], c),
    ),
    process_independence: (
        lambda m, t, a, b, c: process_independence(t, a, b, Event(exclude=c)),
        lambda m, t, a, b, c: multiway_independence(t, [a, b], Event(exclude=c)),
    ),
}


@pytest.mark.parametrize("shortcut", list(SHORTCUTS), ids=lambda f: f.__name__)
def test_shortcut_is_its_general_form_at_the_defaults(shortcut):
    """A shortcut takes no tolerance and answers as its general form does at
    the default tolerances, on dense models and on sparse tree ensembles."""
    assert not {"zero_tol", "eps_spec", "sym_tol", "tol"} & set(
        inspect.signature(shortcut).parameters
    )
    via_shortcut, via_general = SHORTCUTS[shortcut]
    rng = np.random.default_rng(12)
    for n in range(3, 8):
        tree = ensemble_from_edges(rng, n, random_tree_edges(rng, n))
        for model in (random_model(rng, n), DppModel.from_ensemble(tree)):
            table = build_table(model)
            for _ in range(4):
                sets = random_disjoint_sets(rng, n, 3)
                assert via_shortcut(model, table, *sets) == via_general(model, table, *sets)
