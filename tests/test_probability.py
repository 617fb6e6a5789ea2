import collections
import itertools
import math

import numpy as np
import pytest

from dppci import (
    CiQuery,
    DppModel,
    Event,
    IndexOutOfRangeError,
    IndexSet,
    NumericalFailureError,
    OverlappingSetsError,
    SpectrumOutOfRangeError,
    build_table,
    check_conditional_independence,
    conditional_kernel,
    event_prob,
    exact_prob,
    inclusion_prob,
    k_from_l,
    mixed_prob,
    schur_complement,
    separation_zero_block_report,
    validate_ensemble,
)
from dppci.probability import _clamp_probability, _k_block_prob, _l_block_prob, _route
from generators import (
    complement,
    ensemble_from_edges,
    indices0,
    precision_structured_marginal,
    random_disjoint_sets,
    random_ensemble_matrix,
    random_marginal_matrix,
    random_model,
    random_orthogonal,
    random_tree_edges,
    union,
)

DEMO_K = [
    [0.05, 0.0, 0.1],
    [0.0, 0.8, 0.2],
    [0.1, 0.2, 0.6],
]


@pytest.fixture(scope="module")
def demo_model():
    return DppModel.from_marginal(DEMO_K)


def all_subsets(n):
    for r in range(n + 1):
        yield from (IndexSet(c) for c in itertools.combinations(range(1, n + 1), r))


class TestInclusionProb:
    def test_demo_single_element(self, demo_model):
        assert inclusion_prob(demo_model, [3]) == pytest.approx(0.6, abs=1e-12)

    def test_empty_set_is_one(self, demo_model):
        assert inclusion_prob(demo_model, []) == 1.0

    def test_demo_pair(self, demo_model):
        assert inclusion_prob(demo_model, [1, 2]) == pytest.approx(0.04, abs=1e-12)

    def test_out_of_range(self, demo_model):
        with pytest.raises(IndexOutOfRangeError):
            inclusion_prob(demo_model, [4])


class TestExactProb:
    def test_scalar_ensemble_half_half(self):
        model = DppModel.from_ensemble([[1.0]])
        assert exact_prob(model, [1]) == pytest.approx(0.5, abs=1e-12)
        assert exact_prob(model, []) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_ensemble(self):
        model = DppModel.from_ensemble(np.diag([1.0, 3.0]))
        assert exact_prob(model, [1, 2]) == pytest.approx(3.0 / 8.0, abs=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(101)
        for n in (2, 4, 6):
            model = random_model(rng, n)
            total = sum(exact_prob(model, s) for s in all_subsets(n))
            assert total == pytest.approx(1.0, abs=1e-10)


class TestMixedProb:
    def test_demo_values(self, demo_model):
        assert mixed_prob(demo_model, Event([1], [2])) == pytest.approx(0.01, abs=1e-12)
        assert mixed_prob(demo_model, Event([1, 3], [2])) == pytest.approx(0.006, abs=1e-12)

    def test_trivial_event(self, demo_model):
        assert mixed_prob(demo_model, Event([], [])) == 1.0

    def test_reduces_to_inclusion(self, demo_model):
        for a in ([1], [2, 3], [1, 3]):
            assert mixed_prob(demo_model, Event(a, [])) == pytest.approx(
                inclusion_prob(demo_model, a), abs=1e-14
            )

    def test_pure_exclusion_matches_complement_inclusion(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, 5)
        comp = DppModel.from_marginal(np.eye(5) - model.marginal.array)
        for b in ([2], [1, 4], [3, 5]):
            assert mixed_prob(model, Event([], b)) == pytest.approx(
                inclusion_prob(comp, b), abs=1e-12
            )

    def test_overlap_rejected(self, demo_model):
        with pytest.raises(OverlappingSetsError):
            mixed_prob(demo_model, Event([1], [1]))

    def test_inclusion_exclusion_consistency(self):
        rng = np.random.default_rng(17)
        model = random_model(rng, 5)
        a, b = IndexSet([1, 3]), IndexSet([2])
        direct = mixed_prob(model, Event(a, b))
        summed = sum(
            exact_prob(model, s)
            for s in all_subsets(5)
            if set(a).issubset(s.members) and not set(b) & set(s.members)
        )
        assert direct == pytest.approx(summed, abs=1e-10)


def test_exact_prob_where_det_l_plus_i_overflows():
    """A banded L at n = 400 with spectrum in (4, 20): det(L + I) is about
    e^981 and overflows a double, yet Pr(Y = A) is a representable double for
    the full set and for a half-size set."""
    n = 400
    larr = 12.0 * np.eye(n) + 4.0 * (np.eye(n, k=1) + np.eye(n, k=-1))
    ell = np.linalg.eigvalsh(larr)
    assert ell[-1] == pytest.approx(20.0, rel=1e-4)
    model = DppModel.from_ensemble(larr)
    half = sorted(np.random.default_rng(400).choice(n, n // 2, replace=False) + 1)
    for a in (list(range(1, n + 1)), half):
        idx = np.array(a) - 1
        log_ref = np.linalg.slogdet(larr[np.ix_(idx, idx)])[1] - np.log1p(ell).sum()
        assert exact_prob(model, a) == pytest.approx(np.exp(log_ref), rel=1e-8, abs=0)


def _events(n):
    """Every event over {1..n} as masks (D, C): each element is included,
    excluded or neither, 3^n events."""
    for labels in itertools.product(range(3), repeat=n):
        yield tuple(sum(1 << i for i, x in enumerate(labels) if x == g) for g in (1, 2))


def _members(mask, n):
    return [i + 1 for i in range(n) if mask >> i & 1]


class TestEventRoutes:
    """An event's probability is read from K's bordered block on C ∪ D, from
    L + I on R ∖ D over det(L + I), R = {1..n} ∖ C, or, for D = {1..n}, from
    K's spectrum (``probability._route``)."""

    @staticmethod
    def _models(n):
        rng = np.random.default_rng(606)
        yield DppModel.from_marginal(random_marginal_matrix(rng, n))
        yield DppModel.from_ensemble(random_ensemble_matrix(rng, n))
        yield DppModel.from_ensemble(ensemble_from_edges(rng, n, random_tree_edges(rng, n)))

    @pytest.mark.parametrize("which", ["dense K", "dense L", "sparse L"])
    def test_every_event_matches_the_oracle_and_the_other_route(self, which):
        n = 6
        model = dict(zip(["dense K", "dense L", "sparse L"], self._models(n)))[which]
        table = build_table(model)
        routes = collections.Counter()
        for d, c in _events(n):
            event = Event(_members(d, n), _members(c, n))
            p = mixed_prob(model, event)
            assert abs(p - event_prob(table, event)) <= 1e-13, (d, c)
            route = _route(model, d.bit_count(), c.bit_count())
            routes[route] += 1
            others = {"K": [_l_block_prob], "L": [_k_block_prob]}.get(
                route, [_k_block_prob, _l_block_prob]
            )
            for other in others:
                if p > 1e-300:
                    assert other(model, d, c) == pytest.approx(p, rel=1e-10, abs=0), (d, c)
        # |D| + 2|C| <= n for 435 of the 729 events, one of them D = {1..n}.
        assert routes == {"K": 434, "L": 294, "spectrum": 1}

    def test_l_composed_from_k_near_one_keeps_k_block(self):
        """An L composed from a K whose top eigenvalue is 1 - 1e-9 has entries
        off by about u * 1e9, so its block would miss the oracle by far more
        than K's: every event keeps K's block, even where L's is smaller."""
        n = 5
        rng = np.random.default_rng(619)
        vecs = random_orthogonal(rng, n)
        w = rng.uniform(0.1, 0.9, size=n)
        w[0], w[1] = 1.0 - 1e-9, 1e-9
        model = DppModel.from_marginal((vecs * w) @ vecs.T)
        table = build_table(model)
        worst_l = 0.0
        for d, c in _events(n):
            if d.bit_count() == n or d.bit_count() + 2 * c.bit_count() <= n:
                continue
            assert _route(model, d.bit_count(), c.bit_count()) == "K"
            event = Event(_members(d, n), _members(c, n))
            ref = event_prob(table, event)
            assert abs(mixed_prob(model, event) - ref) <= 1e-13, (d, c)
            worst_l = max(worst_l, abs(_l_block_prob(model, d, c) - ref))
        assert worst_l > 1e-10

    def test_full_set_inclusion_is_det_k(self):
        rng = np.random.default_rng(611)
        for n in range(1, 9):
            for model in (random_model(rng, n),
                          DppModel.from_ensemble(random_ensemble_matrix(rng, n))):
                det_k = np.linalg.det(model.marginal.array)
                everyone = list(range(1, n + 1))
                for p in (inclusion_prob(model, everyone), exact_prob(model, everyone),
                          mixed_prob(model, Event(everyone))):
                    assert p == pytest.approx(det_k, rel=1e-12, abs=0)

    def test_tie_takes_k_bordered_block_bitwise(self):
        """Where |C ∪ D| = n - |C| (C nonempty) both blocks are the same size
        and K's is taken: the answer is (-1)^|C| det of K's bordered block."""
        rng = np.random.default_rng(617)
        ties = 0
        for n in range(2, 8):
            model = random_model(rng, n)
            for d, c in _events(n):
                if not c or d.bit_count() + 2 * c.bit_count() != n:
                    continue
                e = indices0(IndexSet(_members(d | c, n)))
                block = model.marginal.array[np.ix_(e, e)]
                cpos = np.searchsorted(e, indices0(IndexSet(_members(c, n))))
                block[cpos, cpos] -= 1.0
                expected = _clamp_probability((-1.0) ** c.bit_count() * float(np.linalg.det(block)))
                assert mixed_prob(model, Event(_members(d, n), _members(c, n))) == expected
                ties += 1
        assert ties > 100


class TestExactProbInLogs:
    """exact_prob on an n = 400 L with spectrum linspace(5, 25): det(L + I) is
    about e^1079, far past the double range, yet each exact probability is
    the exp of its log, to a subnormal and to 0.0 only on true underflow."""

    @pytest.fixture(scope="class")
    def case(self):
        n = 400
        rng = np.random.default_rng(400)
        vecs = random_orthogonal(rng, n)
        w = np.linspace(5.0, 25.0, n)
        larr = (vecs * w) @ vecs.T
        larr = (larr + larr.T) / 2.0
        log_norm = float(np.sum(np.log1p(w)))
        # log Pr(Y = A) of each prefix of one random order, from one Cholesky:
        # it rises with the prefix, each step a log pivot above log 5.
        order = rng.permutation(n)
        chol = np.linalg.cholesky(larr[np.ix_(order, order)])
        log_p = np.cumsum(2.0 * np.log(np.diag(chol))) - log_norm
        return DppModel.from_ensemble(larr), larr, log_norm, order, log_p

    @staticmethod
    def _reference(larr, log_norm, a):
        idx = np.array(a) - 1
        sign, log_det = np.linalg.slogdet(larr[np.ix_(idx, idx)])
        assert sign == 1.0
        return float(log_det) - log_norm

    def test_subnormal_within_two_spacings(self, case):
        model, larr, log_norm, order, log_p = case
        k = int(np.argmin(np.abs(log_p + 740.0))) + 1
        a = sorted((order[:k] + 1).tolist())
        ref = self._reference(larr, log_norm, a)
        assert -744.0 < ref < -737.0
        p = exact_prob(model, a)
        assert 0.0 < p < np.finfo(float).tiny
        assert abs(p - math.exp(ref)) <= 2 * 5e-324

    def test_zero_only_below_the_double_range(self, case):
        model, larr, log_norm, order, log_p = case
        k = int(np.flatnonzero(log_p < -745.2)[-1]) + 1
        a = sorted((order[:k] + 1).tolist())
        assert self._reference(larr, log_norm, a) < -745.2
        assert exact_prob(model, a) == 0.0

    def test_half_size_set_to_relative_accuracy(self, case):
        model, larr, log_norm, order, _ = case
        a = sorted((order[:200] + 1).tolist())
        ref = self._reference(larr, log_norm, a)
        assert exact_prob(model, a) == pytest.approx(math.exp(ref), rel=1e-10, abs=0)


class TestComplementDuality:
    def test_exact_prob_through_complement_model(self):
        rng = np.random.default_rng(23)
        for n in (3, 5):
            model = random_model(rng, n)
            comp = DppModel.from_marginal(np.eye(n) - model.marginal.array)
            for s in all_subsets(n):
                assert exact_prob(model, s) == pytest.approx(
                    exact_prob(comp, complement(s, n)), abs=1e-10
                )


@pytest.mark.parametrize("n", range(3, 8))
def test_conditioning_complement_duality(n):
    """C ⊆ Y is the event C ∩ Ȳ = ∅ for the complement process Ȳ, whose kernel
    is I - K: both conditionings give kernels that sum to I and the same
    verdicts. The precision-structured K is independent given C by
    construction, the random one is not."""
    rng = np.random.default_rng(400 + n)
    karr, a, b, c = precision_structured_marginal(rng, 1, 1, n - 2)
    structured, dense = DppModel.from_marginal(karr), random_model(rng, n)
    for model in (structured, dense):
        comp = DppModel.from_marginal(np.eye(n) - model.marginal.array)
        given_in = conditional_kernel(model, Event(include=c))
        given_out = conditional_kernel(comp, Event(exclude=c))
        assert given_in.labels == given_out.labels
        np.testing.assert_allclose(
            given_in.array, np.eye(n - len(c)) - given_out.array, atol=1e-12
        )
        v_in = check_conditional_independence(model, CiQuery(a, b, given_in=c))
        v_out = check_conditional_independence(comp, CiQuery(a, b, given_out=c))
        assert v_in.independent == v_out.independent
        assert v_in.criterion_value == pytest.approx(v_out.criterion_value, abs=1e-12)
    assert check_conditional_independence(structured, CiQuery(a, b, given_in=c)).independent
    assert not check_conditional_independence(dense, CiQuery(a, b, given_in=c)).independent


@pytest.mark.parametrize("n", range(3, 9))
def test_conditioning_relabelling(n):
    """Relabelling the ground set through a permutation π commutes with the
    conditioning step: conditioning the relabelled model on the relabelled
    event gives the same conditional kernel, zero-block verdict and
    inverse-graph residual. The precision-structured K is independent given
    its C ⊆ Y, the random K under a random mixed event is not."""
    rng = np.random.default_rng(900 + n)
    karr, sa, sb, sc = precision_structured_marginal(rng, 1, 1, n - 2)
    a, b, d, c = random_disjoint_sets(rng, n, 4, nonempty=range(min(n, 4)))
    cases = [
        (DppModel.from_marginal(karr), sa, sb, Event(include=sc)),
        (random_model(rng, n), a, b, Event(d, c)),
    ]
    verdicts = []
    for model, a, b, given in cases:
        pi = rng.permutation(n) + 1  # element i is relabelled pi[i - 1]
        inv = np.argsort(pi)
        moved = DppModel.from_marginal(model.marginal.array[np.ix_(inv, inv)])

        def relabel(s):
            return IndexSet(int(pi[i - 1]) for i in s)

        moved_given = Event(relabel(given.include), relabel(given.exclude))
        tol = 1e-12 * model.marginal.matrix.max_abs()

        ck, moved_ck = conditional_kernel(model, given), conditional_kernel(moved, moved_given)
        assert moved_ck.labels == relabel(ck.labels).members
        pos = np.searchsorted(moved_ck.labels, [pi[i - 1] for i in ck.labels])
        np.testing.assert_allclose(moved_ck.array[np.ix_(pos, pos)], ck.array, rtol=0, atol=tol)

        v = check_conditional_independence(model, CiQuery(a, b, given.include, given.exclude))
        moved_v = check_conditional_independence(
            moved, CiQuery(relabel(a), relabel(b), moved_given.include, moved_given.exclude)
        )
        assert moved_v.independent == v.independent
        assert moved_v.criterion_value == pytest.approx(v.criterion_value, abs=tol)
        verdicts.append(v.independent)

        e = union(given.include, given.exclude)
        r = separation_zero_block_report(model.ensemble, a, b, e)
        moved_r = separation_zero_block_report(moved.ensemble, relabel(a), relabel(b), relabel(e))
        assert moved_r.residual == pytest.approx(
            r.residual, abs=1e-12 * model.ensemble.matrix.max_abs()
        )
    assert verdicts == [True, False]


class TestModelConsistency:
    def test_kernels_mutually_consistent(self):
        rng = np.random.default_rng(31)
        for n in (2, 5, 8):
            model = random_model(rng, n)
            np.testing.assert_allclose(
                k_from_l(model.ensemble).array, model.marginal.array, atol=1e-9
            )

    def test_from_ensemble_round_trip(self):
        larr = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = DppModel.from_ensemble(larr)
        np.testing.assert_allclose(model.ensemble.array, larr, atol=1e-14)


class TestConditionalKernels:
    def test_inclusion_empty_conditioning(self, demo_model):
        ck = conditional_kernel(demo_model, Event(include=[]))
        np.testing.assert_array_equal(ck.array, demo_model.marginal.array)
        assert ck.labels == (1, 2, 3)

    def test_inclusion_demo_matches_schur(self, demo_model):
        ck = conditional_kernel(demo_model, Event(include=[3]))
        s = schur_complement(demo_model.marginal.matrix, IndexSet([3]))
        np.testing.assert_allclose(ck.array, s.array, atol=1e-15)
        assert ck.labels == (1, 2)

    def test_inclusion_reproduces_probability_ratio(self):
        rng = np.random.default_rng(37)
        for trial in range(15):
            n = int(rng.integers(3, 8))
            model = random_model(rng, n)
            c, a = _random_pair(rng, n)
            ck = conditional_kernel(model, Event(include=c))
            cond_model = DppModel.from_marginal(ck.kernel)
            local_a = IndexSet(int(p) + 1 for p in np.searchsorted(ck.labels, a.members))
            lhs = inclusion_prob(cond_model, local_a)
            rhs = inclusion_prob(model, union(a, c)) / inclusion_prob(model, c)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_one_spectral_margin_for_models_and_conditional_kernels(self):
        """A model and its conditional kernels share one margin: a kernel with
        an eigenvalue below it is refused when the model is built, and a
        conditional kernel always makes a model, reusing its matrix."""
        with pytest.raises(SpectrumOutOfRangeError, match="smallest is 1.000000e-12"):
            DppModel.from_marginal(np.diag([0.5, 1e-12, 0.5]))
        rng = np.random.default_rng(263)
        for n in range(2, 7):
            model = random_model(rng, n)
            for c, _, _ in (random_disjoint_sets(rng, n, 3) for _ in range(4)):
                ck = conditional_kernel(model, Event(include=c))
                cond_model = DppModel.from_marginal(ck.kernel)
                assert cond_model.marginal.matrix is ck.kernel.matrix

    def test_exclusion_diagonal_example(self):
        model = DppModel.from_marginal(np.diag([0.3, 0.7]))
        ck = conditional_kernel(model, Event(exclude=[2]))
        np.testing.assert_allclose(ck.array, [[0.3]], atol=1e-14)
        assert ck.labels == (1,)

    def test_exclusion_reproduces_probability_ratio(self):
        rng = np.random.default_rng(41)
        for trial in range(15):
            n = int(rng.integers(3, 8))
            model = random_model(rng, n)
            c, a = _random_pair(rng, n)
            ck = conditional_kernel(model, Event(exclude=c))
            local_a = IndexSet(int(p) + 1 for p in np.searchsorted(ck.labels, a.members))
            lhs = inclusion_prob(DppModel.from_marginal(ck.kernel), local_a)
            rhs = mixed_prob(model, Event(a, c)) / mixed_prob(model, Event([], c))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_mixed_conditioning_composes(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            n = int(rng.integers(4, 8))
            model = random_model(rng, n)
            elems = list(rng.permutation(n) + 1)
            cin, cout, a = IndexSet(elems[:1]), IndexSet(elems[1:2]), IndexSet(elems[2:3])
            ck = conditional_kernel(model, Event(cin, cout))
            assert set(ck.labels) == set(range(1, n + 1)) - set(cin) - set(cout)
            local_a = IndexSet(int(p) + 1 for p in np.searchsorted(ck.labels, a.members))
            lhs = inclusion_prob(DppModel.from_marginal(ck.kernel), local_a)
            rhs = mixed_prob(model, Event(union(a, cin), cout)) / mixed_prob(
                model, Event(cin, cout)
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)
        # Entrywise against the two-step reference: the exclusion formula
        # I - (I-K)/(I-K)_C, then the Schur step on the included set.
        rng = np.random.default_rng(47)
        for trial in range(40):
            n = int(rng.integers(7, 10))
            model = random_model(rng, n)
            elems = list(rng.permutation(n) + 1)
            nin, nout = (int(k) for k in rng.integers(0, 4, size=2))
            cin, cout = IndexSet(elems[:nin]), IndexSet(elems[nin:nin + nout])
            ck = conditional_kernel(model, Event(cin, cout))
            karr = model.marginal.array
            keep = [i for i in range(n) if i + 1 not in cout]
            c = indices0(cout)
            m = np.eye(n) - karr
            k1 = np.eye(len(keep)) - (
                m[np.ix_(keep, keep)]
                - m[np.ix_(keep, c)] @ np.linalg.solve(m[np.ix_(c, c)], m[np.ix_(c, keep)])
            )
            d = [keep.index(i - 1) for i in cin]
            r = [j for j in range(len(keep)) if j not in d]
            expected = k1[np.ix_(r, r)] - k1[np.ix_(r, d)] @ np.linalg.solve(
                k1[np.ix_(d, d)], k1[np.ix_(d, r)]
            )
            assert ck.labels == tuple(keep[j] + 1 for j in r)
            np.testing.assert_allclose(
                ck.array, expected, rtol=0, atol=1e-12 * np.max(np.abs(karr))
            )


def _random_pair(rng, n):
    """Two disjoint sets: a conditioning set and a probe set (may be empty)."""
    perm = list(rng.permutation(n) + 1)
    csize = int(rng.integers(1, max(2, n - 1)))
    asize = int(rng.integers(1, n - csize + 1))
    return IndexSet(perm[:csize]), IndexSet(perm[csize:csize + asize])


class TestClamping:
    def test_small_negative_clamped(self):
        assert _clamp_probability(-1e-13) == 0.0

    def test_just_above_one_clamped(self):
        assert _clamp_probability(1.0 + 1e-13) == 1.0

    def test_far_outside_raises(self):
        with pytest.raises(NumericalFailureError):
            _clamp_probability(-1e-6)
        with pytest.raises(NumericalFailureError):
            _clamp_probability(1.001)

    def test_interior_untouched(self):
        assert _clamp_probability(0.25) == 0.25

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_raises(self, p):
        with pytest.raises(NumericalFailureError):
            _clamp_probability(p)
