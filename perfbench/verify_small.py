"""verify-small: the acceptance gate's verified queries, scaled down.

A round is 1/SCALE of acceptance criteria 2 and 3 of the test suite
(tests/test_acceptance.py), with the gate's model families, model sizes
and query kinds:

- criterion 2: dense random K at n = 2..7. Each model's table is built,
  then four zero-block queries run and each is replayed on the table:
  check_marginal_independence, check_ci_given_inclusion and both
  check_pairwise_given_rest_*. The gate has 500 such models with n uniform
  on 2..7; a round has one of each size.
- criterion 3: sparse L on the gate's 18 graphs. Each model's table and
  induced graph are built once. The gate certifies every (A, B, C, D) in
  which C separates A from B and D is any subset of the rest, and every
  split of G - C into its components (also with the last component as D
  when there are three or more), and replays each certificate on the
  table. A round draws 1/SCALE of each model's certificates and of its
  multiway certificates, uniformly and at least one of each.

Zero-block verdicts must match a dense numpy reference, and their replays
must match it too wherever the oracle's tolerance can resolve the
dependence. Every certificate asked is for a separated triple, so, as in
the gate, it must be certified and the oracle must confirm independence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from dppci import (
    Event,
    build_table,
    check_ci_given_inclusion,
    check_marginal_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    graph_certified_ci,
    graph_certified_multiway_ci,
    induced_graph,
    multiway_independence,
    process_independence,
)

from . import checks, inputs
from .harness import Run, build_model

ORACLE_TOL = 1e-9  # dppci.oracle default tolerance on factorization residuals
SCALE = 80         # a round is 1/SCALE of the gate's criteria 2 and 3
DENSE_SIZES = range(2, 8)


class Query(NamedTuple):
    group: str
    op: str
    args: tuple        # the sets asked about, for failure reports
    ask: object        # model -> verdict
    replay_op: str
    replay: object     # table -> oracle verdict
    # Zero-block queries: the dense numpy reference verdict, and what the
    # oracle must say (None where the dependence is below its resolution).
    reference: bool | None = None
    oracle_must: bool | None = None


def zero_block_query(k_ref, group, op, ask, a, b, gin, gout) -> Query:
    """A zero-block query with its dense reference verdict and what the oracle must say.

    For a ∈ A, b ∈ B the oracle's joint table of (Y_A, Y_B) carries the
    covariance -K'_ab² of the two indicators, spread over 2^(|A|+|B|-2)
    entries, so its residual is at least max K'_ab² / 2^(|A|+|B|-2). Where
    that bound clears twice the oracle's tolerance it must report
    dependence; below it the oracle cannot resolve the dependence.
    """
    m, labels = checks.conditional_kernel_ref(k_ref, gin, gout)
    reference = checks.block_independent(m, labels, [a, b])
    bound = float(np.max(checks.cross_block(m, labels, a, b) ** 2)) / 2 ** (len(a) + len(b) - 2)
    resolvable = bound > 2 * ORACLE_TOL
    oracle_must = True if reference else (False if resolvable else None)
    return Query(group, op, (a, b, gin, gout), ask, "process_independence",
                 lambda t: process_independence(t, a, b, Event(gin, gout)), reference, oracle_must)


def dense_queries(rng, n, k) -> list:
    """Criterion 2's four queries on one dense model."""
    a, b, c = inputs.disjoint_sets(rng, n, 3)
    i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False) + 1)
    rest = [v for v in range(1, n + 1) if v not in (i, j)]
    return [
        zero_block_query(k, "independence.ci", "check_marginal_independence",
                         lambda m: check_marginal_independence(m, a, b), a, b, [], []),
        zero_block_query(k, "independence.ci", "check_ci_given_inclusion",
                         lambda m: check_ci_given_inclusion(m, a, b, c), a, b, c, []),
        zero_block_query(k, "independence.pairwise", "check_pairwise_given_rest_included",
                         lambda m: check_pairwise_given_rest_included(m, i, j), [i], [j], rest, []),
        zero_block_query(k, "independence.pairwise", "check_pairwise_given_rest_excluded",
                         lambda m: check_pairwise_given_rest_excluded(m, i, j), [i], [j], [], rest),
    ]


def gate_graphs(rng, max_n=8) -> list:
    """Criterion 3's graphs, (family, n, edges), up to max_n vertices."""
    graphs = [("chain", n, inputs.chain_edges(n)) for n in range(3, 9)]
    graphs += [("star", n, inputs.star_edges(n)) for n in range(4, 9)]
    graphs += [("tree", n, inputs.random_tree_edges(rng, n)) for n in (6, 7, 8)]
    graphs += [("cliques", sum(s), inputs.block_clique_edges(s)) for s in ([2, 3], [3, 3], [2, 2, 2], [4, 3])]
    return [g for g in graphs if g[1] <= max_n]


def gate_queries(adj, n) -> tuple[int, list]:
    """What criterion 3 asks of one graph: how many (A, B, C, D) it
    certifies, and the list of its multiway certificates (parts, C, D).

    For a given C, labelling every other vertex A, B, D or none is a
    certified query when no component of G - C holds both an A and a B.
    Per component of size s that leaves 2·3^s - 2^s labellings; requiring
    A and B non-empty is inclusion-exclusion over the products.
    """
    pairs, multiway = 0, []
    for c_mask in range(1 << n):
        c = checks.mask_members(c_mask, n)
        comps = inputs.components_without(adj, c)
        sizes = [len(comp) for comp in comps]
        pairs += (math.prod(2 * 3 ** s - 2 ** s for s in sizes)
                  - 2 * math.prod(3 ** s for s in sizes) + math.prod(2 ** s for s in sizes))
        if len(comps) >= 2:
            multiway.append((comps, c, []))
        if len(comps) >= 3:
            multiway.append((comps[:-1], c, comps[-1]))
    return pairs, multiway


def draw_certificates(rng, adj, n, count) -> list:
    """count (A, B, C, D) drawn uniformly from those criterion 3 certifies.

    Each vertex goes to A, B, C, D or none with equal chance; a draw is
    kept when A and B are non-empty and C separates them.
    """
    out = []
    while len(out) < count:
        for labels in rng.integers(0, 5, size=(64, n)).tolist():
            a, b, c, d = ([v + 1 for v in range(n) if labels[v] == g] for g in range(4))
            if a and b and inputs.separated(adj, a, b, c):
                out.append((a, b, c, d))
                if len(out) == count:
                    break
    return out


def certificate_query(a, b, c, d) -> Query:
    return Query("graphs.certify", "graph_certified_ci", (a, b, c, d),
                 lambda m: graph_certified_ci(m, a, b, c=c, d=d),
                 "process_independence", lambda t: process_independence(t, a, b, Event(d, c)))


def multiway_query(parts, c, d) -> Query:
    return Query("graphs.certify", "graph_certified_multiway_ci", (parts, c, d),
                 lambda m: graph_certified_multiway_ci(m, parts, c=c, d=d),
                 "multiway_independence", lambda t: multiway_independence(t, parts, Event(d, c)))


class VerifySmall:
    name = "verify-small"
    throughput_name = "confirmations_per_s"
    latency_name = "query"
    work_key = "replays"
    time_key = None

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.dense_sizes = range(2, 5) if smoke else DENSE_SIZES
        self.max_n = 5 if smoke else 8
        self.pool = []

    @property
    def round_units(self) -> int:
        return len(self.pool)

    def setup(self) -> None:
        # The pool's make-up is fixed: the gate's graphs and one dense model
        # per size. The seed draws the values, the random trees and the queries.
        rng = np.random.default_rng([self.seed, 1])
        self.pool = [self._dense_spec(rng, n) for n in self.dense_sizes]
        self.pool += [self._sparse_spec(rng, *g) for g in gate_graphs(rng, self.max_n)]

    def warm_up(self) -> None:
        self.unit(0, Run(self.seed, traced=False))

    @staticmethod
    def _dense_spec(rng, n):
        k = inputs.dense_marginal(rng, n)
        return {"n": n, "kind": "K", "family": "dense", "matrix": k, "queries": dense_queries(rng, n, k)}

    @staticmethod
    def _sparse_spec(rng, family, n, edges):
        adj = inputs.adjacency(n, edges)
        pairs, multiway = gate_queries(adj, n)
        queries = [certificate_query(*q) for q in draw_certificates(rng, adj, n, max(1, round(pairs / SCALE)))]
        if multiway:
            picks = rng.choice(len(multiway), size=max(1, round(len(multiway) / SCALE)), replace=False)
            queries += [multiway_query(*multiway[p]) for p in picks]
        order = rng.permutation(len(queries))
        return {"n": n, "kind": "L", "family": family, "matrix": inputs.ensemble_from_edges(rng, n, edges),
                "edges": frozenset(tuple(sorted(e)) for e in edges), "queries": [queries[j] for j in order]}

    def unit(self, i: int, run) -> None:
        """One model: build it and its table (and for L its graph), then run and replay its queries."""
        spec = self.pool[i % len(self.pool)]
        n, family = spec["n"], spec["family"]
        matrix = spec["matrix"].copy()
        msid = run.open("verify-small.model")
        op = "from_marginal" if spec["kind"] == "K" else "from_ensemble"
        ok, model = run.call("probability.model_build", op, n, build_model, spec["kind"], matrix, parent=msid)
        if ok:
            ok, table = run.call("oracle.build_table", "build_table", n, build_table, model, parent=msid)
        if ok:
            run.counters["subsets"] += 1 << n
            run.check(checks.table_sums_to_one(table.probs), "oracle.build_table", "build_table", n,
                      lambda: f"{family} table sums to {float(table.probs.sum())!r}")
            if "edges" in spec:
                self._graph(run, model, spec, n, msid)
            for query in spec["queries"]:
                t0 = run.clock()
                self._verified(run, model, table, n, family, query, msid)
                run.latencies_s.append(run.clock() - t0)
        run.close(msid)

    @staticmethod
    def _graph(run, model, spec, n, msid) -> None:
        ok, graph = run.call("graphs.induced_graph", "induced_graph", n, induced_graph,
                             model.ensemble.matrix, parent=msid)
        if ok:
            run.check(graph.edges == spec["edges"], "graphs.induced_graph", "induced_graph", n,
                      lambda: f"{spec['family']} graph has edges {sorted(graph.edges)}")

    @staticmethod
    def _verified(run, model, table, n, family, q: Query, msid) -> None:
        qid = run.new_qid()
        qsid = run.open("verify-small.query", qid, msid)
        certificate = q.group == "graphs.certify"
        ok, verdict = run.call(q.group, q.op, n, q.ask, model, parent=qsid, qid=qid)
        if ok:
            claimed = verdict.is_certified if certificate else verdict.independent
            if certificate:
                run.counters["certify_calls"] += 1
                run.counters["certified"] += claimed
                run.check(claimed, q.group, q.op, n,
                          lambda: f"{family} query {q.args}: separated, but not certified")
            else:
                run.check(claimed == q.reference, q.group, q.op, n,
                          lambda: f"{family} query {q.args}: verdict independent={claimed}, "
                                  f"dense reference independent={q.reference}")
            ok, oracle = run.call("oracle.replay", q.replay_op, n, q.replay, table, parent=qsid, qid=qid)
        if ok:
            run.counters["replays"] += 1
            run.counters["agree"] += claimed == oracle.independent
            if certificate:
                good = oracle.independent
            elif q.oracle_must is None:
                good = True
                run.counters["unresolved"] += 1
            else:
                good = oracle.independent == q.oracle_must
            run.check(good, q.group, q.op, n,
                      lambda: f"{family} query {q.args}: verdict independent={claimed}, oracle "
                              f"independent={oracle.independent} (residual {oracle.residual:.3e})")
        run.close(qsid)
