"""kernel-large: fresh large models, each taken through a fixed script of queries.

Models have n = 100, 200 and 400 and are built alternately from K and from
L. Every model comes from a banded L whose spectrum tops out at 20, so
det(L + I) overflows a double at n = 400. Probabilities are checked against
log-domain references computed with slogdet, verdicts against a dense
conditional kernel computed directly with numpy, graphs against the known
band structure.

exact_prob on a model whose det(L + I) overflows returns NaN or a silent
0.0 (ROADMAP item 4). On such a model the script asks exact_prob only for
sets on which 0.0 passes the check (true probability below the double
range); the other sets go to :meth:`KernelLarge.known_defects`, which the
run report lists after the measured loop, outside the failure count.
"""

from __future__ import annotations

import math

import numpy as np

from dppci import (
    CiQuery,
    DppError,
    Event,
    check_conditional_independence,
    check_pairwise_given_rest_excluded,
    check_pairwise_given_rest_included,
    complement_marginal,
    conditional_kernel,
    exact_prob,
    graph_certified_ci,
    inclusion_prob,
    induced_graph,
    k_from_l,
    l_from_k,
    mixed_prob,
    schur_complement,
    separation_zero_block_report,
    validate_marginal,
)

from . import checks, inputs
from .harness import Run, build_model

SIZES = (100, 200, 400)
BAND = 3
TOP_EIGENVALUE = 20.0
# log of the largest double; det(L + I) above it overflows.
LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


class KernelLarge:
    name = "kernel-large"
    throughput_name = "models_per_s"
    latency_name = "model"
    work_key = "models"
    time_key = None
    round_units = 6

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.sizes = (16, 32, 64) if smoke else SIZES
        self.pool = []

    # -- inputs --------------------------------------------------------------
    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        # One round is six models: every size built once from K and once from
        # L, alternating kinds from one model to the next.
        self.pool = [self._model_spec(rng, self.sizes[k % 3], "K" if k % 2 == 0 else "L")
                     for k in range(self.round_units)]

    def warm_up(self) -> None:
        self.unit(0, Run(self.seed, traced=False))

    def _model_spec(self, rng, n, kind):
        l, w, v = inputs.banded_ensemble(rng, n, BAND, TOP_EIGENVALUE)
        k = (v * (w / (1.0 + w))) @ v.T
        k = (k + k.T) / 2.0
        log_norm = float(np.sum(np.log1p(w)))
        everyone = range(1, n + 1)
        q = n // 4
        spec = {"n": n, "kind": kind, "matrix": k if kind == "K" else l, "k": k, "l": l}

        # Four conditional CI queries with |C| ≈ n/4 and two pairwise ones.
        # The last CI query excludes a contiguous block of the band, which
        # separates everything left of it from everything right of it.
        a, b, gin = inputs.partition(rng, everyone, [4, 4, q])
        a2, b2, gout = inputs.partition(rng, everyone, [4, 4, q])
        a3, b3, gin3, gout3 = inputs.partition(rng, everyone, [4, 4, q // 2, q - q // 2])
        lo = int(rng.integers(n // 4, n // 2))
        block = list(range(lo + 1, lo + q + 1))
        left = [int(v) for v in rng.choice(lo, size=4, replace=False) + 1]
        right = [int(v) for v in rng.choice(range(lo + q + 1, n + 1), size=4, replace=False)]
        spec["ci"] = [(a, b, gin, []), (a2, b2, [], gout), (a3, b3, gin3, gout3),
                      (sorted(left), sorted(right), [], block)]
        spec["ci_ref"] = [checks.verdict_ref(k, [x, y], i, o) for x, y, i, o in spec["ci"]]
        # Pairwise: a pair just outside the band (L_ij = 0 exactly) given the
        # rest excluded, and a neighbouring pair given the rest included.
        i = int(rng.integers(1, n - BAND))
        j = int(rng.integers(1, n))
        kinv = np.linalg.inv(k)
        kinv_zero = abs(kinv[j - 1, j]) <= checks.ZERO_TOL * float(np.max(np.abs(kinv)))
        spec["pairwise"] = [(check_pairwise_given_rest_excluded, i, i + BAND + 1, True),
                            (check_pairwise_given_rest_included, j, j + 1, kinv_zero)]

        # Probabilities of sets of size 1 up to n.
        sizes = sorted({1, q, n // 2, n})
        spec["inclusion"] = [inputs.partition(rng, everyone, [s])[0] for s in sizes]
        exact = [inputs.partition(rng, everyone, [s])[0] for s in sizes]
        spec["mixed"] = [tuple(inputs.partition(rng, everyone, [s, s])) for s in sorted({1, n // 8, q, n // 2})]
        spec["inclusion_ref"] = [checks.log_inclusion(k, s) for s in spec["inclusion"]]
        # Where det(L + I) is not a finite double, exact_prob returns NaN or
        # a silent 0.0 (ROADMAP item 4). Sets on which 0.0 would fail the
        # check are then asked by the known-defect probe, not by the
        # checked script; see known_defects().
        overflow = log_norm > LOG_DOUBLE_MAX
        spec["exact"], spec["exact_overflow"] = [], []
        for s in exact:
            ref = checks.log_exact(l, log_norm, s)
            spec["exact_overflow" if overflow and not checks.probability_ok(0.0, ref) else "exact"].append((s, ref))
        spec["mixed_ref"] = [checks.log_mixed(k, x, y) for x, y in spec["mixed"]]

        spec["conditional"] = (gin3, gout3)
        spec["conditional_ref"] = checks.conditional_kernel_ref(k, gin3, gout3)
        spec["schur_c"] = gin
        keep = checks.idx0([v for v in everyone if v not in set(gin)])
        c0 = checks.idx0(gin)
        spec["schur_ref"] = k[np.ix_(keep, keep)] - k[np.ix_(keep, c0)] @ np.linalg.solve(
            k[np.ix_(c0, c0)], k[np.ix_(c0, keep)])

        edges = inputs.band_edges(n, BAND)
        adj = inputs.adjacency(n, edges)
        spec["edges"] = frozenset(edges)
        spec["certify"] = [(sorted(left), sorted(right), block), (a2, b2, gout)]
        spec["certify_ref"] = [inputs.separated(adj, x, y, c) for x, y, c in spec["certify"]]
        return spec

    # -- the known-defect probe ----------------------------------------------
    def known_defects(self) -> list:
        """Ask exact_prob for every set kept out of the script; untimed.

        Returns (fixed, group, op, n, detail) for each set: fixed is True
        when the answer matches its log-domain reference, and then the sets
        can move back into the checked script.
        """
        out = []
        for spec in self.pool:
            if not spec["exact_overflow"]:
                continue
            try:
                model = build_model(spec["kind"], spec["matrix"].copy())
            except DppError:
                continue  # the script books a failed build
            for s, ref in spec["exact_overflow"]:
                try:
                    p = exact_prob(model, s)
                except DppError as exc:
                    p = f"{type(exc).__name__}: {exc}"
                fixed = checks.probability_ok(p, ref)
                out.append((fixed, "probability.event_prob", "exact_prob", spec["n"],
                            f"|set|={len(s)}: returned {p!r}, reference log p = {ref:.6g}"))
        return out

    # -- one unit: one model through the fixed script ------------------------
    def unit(self, i: int, run) -> None:
        spec = self.pool[i % len(self.pool)]
        n, k, l = spec["n"], spec["k"], spec["l"]
        matrix = spec["matrix"].copy()
        t0 = run.clock()
        msid = run.open("kernel-large.model")
        op = "from_marginal" if spec["kind"] == "K" else "from_ensemble"
        ok, model = run.call("probability.model_build", op, n, build_model, spec["kind"], matrix, parent=msid)
        if ok:
            self._script(run, spec, model, n, k, l, msid)
            run.counters["models"] += 1
        run.close(msid)
        run.latencies_s.append(run.clock() - t0)

    def _script(self, run, spec, model, n, k, l, msid) -> None:
        def call(group, fn, *args):
            return run.call(group, fn.__name__, n, fn, *args, parent=msid)

        def matrix_check(group, op, ok, got, ref):
            if ok:
                run.check(checks.matrix_close(got, ref), group, op, n,
                          lambda: f"max deviation {float(np.max(np.abs(got - ref))):.3e} from the numpy reference")

        ok, _ = call("kernels.validate", validate_marginal, model.marginal)
        ok, lk = call("kernels.convert", l_from_k, model.marginal)
        matrix_check("kernels.convert", "l_from_k", ok, lk.array if ok else None, l)
        ok, kl = call("kernels.convert", k_from_l, model.ensemble)
        matrix_check("kernels.convert", "k_from_l", ok, kl.array if ok else None, k)
        ok, s = call("kernels.schur", schur_complement, model.marginal.matrix, spec["schur_c"])
        matrix_check("kernels.schur", "schur_complement", ok, s.array if ok else None, spec["schur_ref"])

        for (a, b, gin, gout), ref in zip(spec["ci"], spec["ci_ref"]):
            ok, verdict = run.call(
                "independence.ci", "check_conditional_independence", n,
                lambda: check_conditional_independence(model, CiQuery(a, b, given_in=gin, given_out=gout)),
                parent=msid)
            if ok:
                run.check(verdict.independent == ref, "independence.ci", "check_conditional_independence", n,
                          lambda: f"|in|={len(gin)} |out|={len(gout)}: independent={verdict.independent}, "
                                  f"dense reference {ref}")
        for fn, i, j, ref in spec["pairwise"]:
            ok, verdict = call("independence.pairwise", fn, model, i, j)
            if ok:
                run.check(verdict.independent == ref, "independence.pairwise", fn.__name__, n,
                          lambda: f"({i}, {j}): independent={verdict.independent}, reference {ref}")

        probes = ([("inclusion_prob", inclusion_prob, (s,), r)
                   for s, r in zip(spec["inclusion"], spec["inclusion_ref"])]
                  + [("exact_prob", exact_prob, (s,), r) for s, r in spec["exact"]]
                  + [("mixed_prob", lambda m, inc, exc: mixed_prob(m, Event(inc, exc)), xy, r)
                     for xy, r in zip(spec["mixed"], spec["mixed_ref"])])
        for op, fn, args, ref in probes:
            ok, p = run.call("probability.event_prob", op, n, fn, model, *args, parent=msid)
            if ok:
                sizes = "/".join(str(len(s)) for s in args)
                run.check(checks.probability_ok(p, ref), "probability.event_prob", op, n,
                          lambda: f"|set|={sizes}: returned {p!r}, reference log p = {ref:.6g}")

        gin, gout = spec["conditional"]
        ok, ck = run.call("probability.conditional_kernel", "conditional_kernel", n,
                          lambda: conditional_kernel(model, Event(gin, gout)), parent=msid)
        if ok:
            ref, labels = spec["conditional_ref"]
            run.check(tuple(ck.labels) == tuple(labels) and checks.matrix_close(ck.array, ref),
                      "probability.conditional_kernel", "conditional_kernel", n,
                      "conditional kernel differs from the dense numpy reference")

        ok, graph = call("graphs.induced_graph", induced_graph, model.ensemble.matrix)
        if ok:
            run.check(graph.edges == spec["edges"], "graphs.induced_graph", "induced_graph", n,
                      lambda: f"{len(graph.edges)} edges, band has {len(spec['edges'])}")
        for (a, b, c), ref in zip(spec["certify"], spec["certify_ref"]):
            ok, verdict = run.call("graphs.certify", "graph_certified_ci", n,
                                   graph_certified_ci, model, a, b, c, parent=msid)
            if ok:
                run.counters["certify_calls"] += 1
                run.counters["certified"] += verdict.is_certified
                run.check(verdict.is_certified == ref, "graphs.certify", "graph_certified_ci", n,
                          lambda: f"certified={verdict.is_certified}, band separation {ref}")

        # I - K has inverse I + L, whose graph is the band: the block left of
        # the excluded band block and the block right of it are separated.
        ok, comp = call("kernels.convert", complement_marginal, model.marginal)
        if ok:
            a, b, c = spec["certify"][0]
            ok, report = call("graphs.zero_block_report", separation_zero_block_report, comp.matrix, a, b, c)
            if ok:
                run.check(bool(report.separated and report.passed), "graphs.zero_block_report",
                          "separation_zero_block_report", n,
                          lambda: f"separated={report.separated} passed={report.passed} "
                                  f"residual {report.residual:.3e} threshold {report.threshold:.3e}")
