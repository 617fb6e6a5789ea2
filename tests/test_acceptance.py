"""End-to-end acceptance checks.

One test per criterion. Each prints a single PASS/FAIL line (bypassing
capture) with its runtime and enforces a runtime budget. Seeds are fixed:
several checks assert two-sided agreement between kernel verdicts and the
enumeration oracle, which is only meaningful on a reproducible draw.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from dppci import (
    DEFAULT_ZERO_TOL,
    DppModel,
    Event,
    IndexSet,
    SymMatrix,
    build_table,
    check_ci_given_inclusion,
    check_marginal_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    complement_marginal,
    counterexample_demo,
    graph_certified_ci,
    graph_certified_multiway_ci,
    induced_graph,
    k_from_l,
    l_from_k,
    multiway_independence,
    process_independence,
    schur_complement,
    separates,
    separation_zero_block_report,
    validate_marginal,
)
from generators import (
    block_clique_edges,
    block_diag_marginal,
    chain_edges,
    complement,
    ensemble_from_edges,
    indices0,
    non_necessity_witness,
    perturb_block,
    precision_structured_marginal,
    random_disjoint_sets,
    random_marginal_matrix,
    random_tree_edges,
    restrict_table_probs,
    star_edges,
    zero_block_ensemble,
)


@contextmanager
def criterion(capsys, num, name, budget_s):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < budget_s else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: {status} ({dt:.2f}s)", flush=True)
    assert dt < budget_s, f"criterion {num} took {dt:.2f}s, budget {budget_s:.0f}s"


def test_criterion_1_counterexample_reproduction(capsys):
    with criterion(capsys, 1, "counterexample-reproduction", 1.0):
        report = counterexample_demo()
        assert abs(report.joint_prob - 0.006) <= 1e-12
        assert abs(report.left_prob - 0.01) <= 1e-12
        assert abs(report.right_prob - 0.6) <= 1e-12
        assert report.factorization_residual <= 1e-12
        assert report.events_factor
        assert report.block_max_abs > 0.0
        assert not report.processes_verdict.independent
        assert report.passed


def test_criterion_2_iff_oracle_equivalence(capsys):
    with criterion(capsys, 2, "iff-oracle-equivalence", 120.0):
        rng = np.random.default_rng(8101)
        kernels = 0
        while kernels < 500:
            n = int(rng.integers(2, 8))
            model = DppModel.from_marginal(random_marginal_matrix(rng, n))
            table = build_table(model)
            a, b, c = random_disjoint_sets(rng, n, 3, nonempty=(0, 1))

            verdict = check_marginal_independence(model, a, b)
            oracle = process_independence(table, a, b)
            assert verdict.independent == oracle.independent

            verdict = check_ci_given_inclusion(model, a, b, c)
            oracle = process_independence(table, a, b, Event(c, []))
            assert verdict.independent == oracle.independent

            i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False) + 1)
            rest = tuple(k for k in range(1, n + 1) if k not in (i, j))
            verdict = check_pairwise_given_rest_included(model, i, j)
            oracle = process_independence(table, [i], [j], Event(rest, []))
            assert verdict.independent == oracle.independent

            verdict = check_pairwise_given_rest_excluded(model, i, j)
            oracle = process_independence(table, [i], [j], Event([], rest))
            assert verdict.independent == oracle.independent

            kernels += 1
        assert kernels >= 500

        # Constructed positives must certify; bumping one entry of the zero
        # block past 100 tau_zero must flip every corresponding verdict.
        for _ in range(40):
            sizes = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
            karr, spans = block_diag_marginal(rng, sizes)
            model = DppModel.from_marginal(karr)
            assert check_marginal_independence(model, spans[0], spans[1]).independent
            assert process_independence(
                build_table(model), spans[0], spans[1]
            ).independent
            delta = 150.0 * DEFAULT_ZERO_TOL * float(np.max(np.abs(karr)))
            bad = DppModel.from_marginal(
                perturb_block(rng, karr, spans[0], spans[1], delta)
            )
            assert not check_marginal_independence(bad, spans[0], spans[1]).independent

        for _ in range(40):
            na, nb = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            nc = int(rng.integers(1, 4))
            karr, a, b, c = precision_structured_marginal(rng, na, nb, nc)
            model = DppModel.from_marginal(karr)
            assert check_ci_given_inclusion(model, a, b, c).independent
            assert process_independence(
                build_table(model), a, b, Event(c, [])
            ).independent
            delta = 150.0 * DEFAULT_ZERO_TOL * float(np.max(np.abs(karr)))
            bad = DppModel.from_marginal(perturb_block(rng, karr, a, b, delta))
            assert not check_ci_given_inclusion(bad, a, b, c).independent

        for _ in range(40):
            nc = int(rng.integers(1, 5))
            karr, a, b, _ = precision_structured_marginal(rng, 1, 1, nc)
            model = DppModel.from_marginal(karr)
            i, j = a.members[0], b.members[0]
            assert check_pairwise_given_rest_included(model, i, j).independent
            delta = 150.0 * DEFAULT_ZERO_TOL * float(np.max(np.abs(karr)))
            bad = DppModel.from_marginal(perturb_block(rng, karr, a, b, delta))
            assert not check_pairwise_given_rest_included(bad, i, j).independent

        for _ in range(40):
            nc = int(rng.integers(1, 5))
            larr, a, b, _ = zero_block_ensemble(rng, 1, 1, nc)
            model = DppModel.from_ensemble(larr)
            i, j = a.members[0], b.members[0]
            assert check_pairwise_given_rest_excluded(model, i, j).independent
            delta = 150.0 * DEFAULT_ZERO_TOL * float(np.max(np.abs(larr)))
            bad = DppModel.from_ensemble(perturb_block(rng, larr, a, b, delta))
            assert not check_pairwise_given_rest_excluded(bad, i, j).independent


def _bit_adjacency(graph):
    adj = [0] * graph.n
    for i, j in graph.edges:
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return adj


def _mask_separated(adj, n, a_mask, b_mask, c_mask):
    allowed = ((1 << n) - 1) & ~c_mask
    frontier = reach = a_mask
    while frontier:
        step = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            step |= adj[v]
        step &= allowed & ~reach
        if step & b_mask:
            return False
        reach |= step
        frontier = step
    return True


def _mask_members(mask, n):
    return [v + 1 for v in range(n) if mask >> v & 1]


def _components_without(adj, n, c_mask):
    left = ((1 << n) - 1) & ~c_mask
    comps = []
    while left:
        seed = left & -left
        reach = seed
        frontier = seed
        while frontier:
            step = 0
            f = frontier
            while f:
                v = (f & -f).bit_length() - 1
                f &= f - 1
                step |= adj[v]
            step &= left & ~reach
            reach |= step
            frontier = step
        comps.append(reach)
        left &= ~reach
    return comps


def test_criterion_3_separation_soundness(capsys):
    with criterion(capsys, 3, "separation-soundness", 120.0):
        rng = np.random.default_rng(8103)
        family = []
        for n in range(3, 9):
            family.append((n, chain_edges(n)))
        for n in range(4, 9):
            family.append((n, star_edges(n)))
        for n in (6, 7, 8):
            family.append((n, random_tree_edges(rng, n)))
        for sizes in ([2, 3], [3, 3], [2, 2, 2], [4, 3]):
            family.append((sum(sizes), block_clique_edges(sizes)))

        confirmed = 0
        for n, edges in family:
            model = DppModel.from_ensemble(ensemble_from_edges(rng, n, edges))
            table = build_table(model)
            graph = induced_graph(model.ensemble.matrix)
            assert graph.edges == frozenset(tuple(sorted(e)) for e in edges)
            adj = _bit_adjacency(graph)

            for assign in itertools.product(range(4), repeat=n):
                a_mask = b_mask = c_mask = out = 0
                for v, g in enumerate(assign):
                    if g == 0:
                        a_mask |= 1 << v
                    elif g == 1:
                        b_mask |= 1 << v
                    elif g == 2:
                        c_mask |= 1 << v
                    else:
                        out |= 1 << v
                if not a_mask or not b_mask:
                    continue
                sep = _mask_separated(adj, n, a_mask, b_mask, c_mask)
                a = _mask_members(a_mask, n)
                b = _mask_members(b_mask, n)
                c = _mask_members(c_mask, n)
                if n <= 5:
                    # exhaustive cross-check of the fast BFS at small sizes
                    assert sep == separates(graph, a, b, c)
                if not sep:
                    continue
                d_mask = out
                while True:
                    d = _mask_members(d_mask, n)
                    assert graph_certified_ci(model, a, b, c=c, d=d).is_certified
                    oracle = process_independence(table, a, b, Event(d, c))
                    assert oracle.residual <= 1e-9
                    confirmed += 1
                    if d_mask == 0:
                        break
                    d_mask = (d_mask - 1) & out

            # multi-way: components of the graph minus C are mutually
            # independent given C excluded; optionally one component as D.
            for c_mask in range(1 << n):
                comps = _components_without(adj, n, c_mask)
                if len(comps) < 2:
                    continue
                c = _mask_members(c_mask, n)
                parts = [_mask_members(m, n) for m in comps]
                assert graph_certified_multiway_ci(model, parts, c=c).is_certified
                oracle = multiway_independence(table, parts, Event([], c))
                assert oracle.residual <= 1e-9
                confirmed += 1
                if len(comps) >= 3:
                    head, tail = parts[:-1], parts[-1]
                    assert graph_certified_multiway_ci(
                        model, head, c=c, d=tail
                    ).is_certified
                    oracle = multiway_independence(table, head, Event(tail, c))
                    assert oracle.residual <= 1e-9
                    confirmed += 1
        assert confirmed > 100_000

        # Non-necessity witness: conditionally independent per the oracle,
        # yet 3 does not separate 1 and 2 in the graph of L.
        witness = DppModel.from_marginal(non_necessity_witness())
        oracle = process_independence(
            build_table(witness), [1], [2], Event([], [3])
        )
        assert oracle.independent
        g_l = induced_graph(witness.ensemble.matrix)
        assert not separates(g_l, [1], [2], [3])
        with capsys.disabled():
            print(
                "ACCEPTANCE 3 witness: oracle residual "
                f"{oracle.residual:.2e} with A={{1}} B={{2}} C={{3}} unseparated "
                f"(edge (1,2) in G_L: {(1, 2) in g_l.edges})"
            )


def test_criterion_4_identity_suite(capsys):
    with criterion(capsys, 4, "identity-suite", 60.0):
        rng = np.random.default_rng(8104)

        for _ in range(200):
            n = int(rng.integers(2, 9))
            karr = random_marginal_matrix(rng, n)
            back = k_from_l(l_from_k(validate_marginal(SymMatrix(karr))))
            assert np.max(np.abs(back.array - karr)) <= 1e-10

        for _ in range(200):
            n = int(rng.integers(2, 9))
            karr = random_marginal_matrix(rng, n)
            size = int(rng.integers(1, n))
            c = IndexSet((rng.choice(n, size=size, replace=False) + 1).tolist())
            cond = schur_complement(SymMatrix(karr), c)
            kinv = np.linalg.inv(karr)
            block = kinv[np.ix_(indices0(complement(c, n)), indices0(complement(c, n)))]
            resid = np.max(np.abs(block @ cond.array - np.eye(n - size)))
            assert resid <= 1e-9

        for _ in range(200):
            n = int(rng.integers(2, 9))
            m = random_marginal_matrix(rng, n, 0.2, 0.95)
            size = int(rng.integers(1, n))
            c = IndexSet((rng.choice(n, size=size, replace=False) + 1).tolist())
            whole = np.linalg.det(m)
            ci = indices0(c)
            parts = np.linalg.det(
                SymMatrix(m).array[np.ix_(ci, ci)]
            ) * np.linalg.det(schur_complement(SymMatrix(m), c).array)
            assert abs(whole - parts) <= 1e-10 * abs(whole)

        for _ in range(200):
            n = int(rng.integers(2, 9))
            table = build_table(DppModel.from_marginal(random_marginal_matrix(rng, n)))
            assert abs(float(table.probs.sum()) - 1.0) <= 1e-10

        for _ in range(200):
            n = int(rng.integers(2, 9))
            karr = random_marginal_matrix(rng, n)
            model = DppModel.from_marginal(karr)
            table = build_table(model)
            size = int(rng.integers(1, n))
            s = IndexSet((rng.choice(n, size=size, replace=False) + 1).tolist())
            marginalized = restrict_table_probs(table, s)
            si = indices0(s)
            direct = build_table(
                DppModel.from_marginal(SymMatrix(karr).array[np.ix_(si, si)])
            )
            assert np.max(np.abs(marginalized - direct.probs)) <= 1e-10
            flipped = table.probs[np.arange(2 ** n) ^ (2 ** n - 1)]
            comp = build_table(DppModel.from_marginal(
                complement_marginal(validate_marginal(SymMatrix(karr))).matrix
            ))
            assert np.max(np.abs(flipped - comp.probs)) <= 1e-10


def test_criterion_5_inverse_graph_zero_block(capsys):
    with criterion(capsys, 5, "inverse-graph-zero-block", 30.0):
        rng = np.random.default_rng(8105)
        checked = 0
        while checked < 150:
            n = int(rng.integers(4, 9))
            kind = checked % 3
            if kind == 0:
                edges = chain_edges(n)
            elif kind == 1:
                edges = star_edges(n)
            else:
                edges = random_tree_edges(rng, n)
            p = ensemble_from_edges(rng, n, edges)
            m = np.linalg.inv(p)
            m = (m + m.T) / 2.0

            degree = {v: 0 for v in range(1, n + 1)}
            for i, j in edges:
                degree[i] += 1
                degree[j] += 1
            cut = int(rng.choice([v for v in degree if degree[v] >= 2]))
            graph = induced_graph(p)
            adj = _bit_adjacency(graph)
            comps = _components_without(adj, n, 1 << (cut - 1))
            if len(comps) < 2:
                continue
            pick = rng.permutation(len(comps))[:2]
            a_pool = _mask_members(comps[pick[0]], n)
            b_pool = _mask_members(comps[pick[1]], n)
            a = [a_pool[t] for t in rng.choice(len(a_pool),
                 size=rng.integers(1, len(a_pool) + 1), replace=False)]
            b = [b_pool[t] for t in rng.choice(len(b_pool),
                 size=rng.integers(1, len(b_pool) + 1), replace=False)]
            c = [cut] + [v for v in range(1, n + 1)
                 if v != cut and v not in a and v not in b and rng.random() < 0.3]
            assert separates(graph, a, b, c)

            cond = schur_complement(SymMatrix(m), IndexSet(c))
            remaining = [v for v in range(1, n + 1) if v not in c]
            pos = {lab: t for t, lab in enumerate(remaining)}
            block = cond.array[np.ix_([pos[v] for v in a], [pos[v] for v in b])]
            assert np.max(np.abs(block)) <= 1e-9 * float(np.max(np.abs(m)))

            report = separation_zero_block_report(m, a, b, c)
            assert report.separated
            assert report.passed
            checked += 1
        assert checked >= 100


def test_criterion_6_determinant_monotone(capsys):
    with criterion(capsys, 6, "determinant-monotone", 10.0):
        rng = np.random.default_rng(8106)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            a = (q * rng.uniform(0.2, 3.0, size=n)) @ q.T
            rank = int(rng.integers(1, n + 1))
            g = rng.normal(size=(n, rank))
            b = g @ g.T
            assert np.linalg.det(a + b) > np.linalg.det(a)
            assert np.linalg.det(a + np.zeros((n, n))) == np.linalg.det(a)