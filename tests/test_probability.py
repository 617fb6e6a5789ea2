import itertools

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
    check_conditional_independence,
    conditional_kernel,
    exact_prob,
    inclusion_prob,
    k_from_l,
    mixed_prob,
    schur_complement,
    separation_zero_block_report,
    validate_ensemble,
)
from dppci.probability import _clamp_probability
from generators import (
    complement,
    indices0,
    precision_structured_marginal,
    random_disjoint_sets,
    random_model,
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
