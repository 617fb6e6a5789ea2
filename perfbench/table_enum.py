"""table-enum: full outcome tables, built and then read.

build_table runs on dense K at n = 16 and n = 18; each table is then read
with process_independence, multiway_independence and event_prob queries and
with sample_many draws. Each table must sum to 1 and match a direct det on
sampled subsets; reads are checked against numpy references, and each
element's inclusion frequency in a sample against K_ii.
"""

from __future__ import annotations

import math

import numpy as np

from dppci import Event, build_table, event_prob, multiway_independence, process_independence, sample_many

from . import checks, inputs
from .harness import Run, build_model

SIZES = (16, 18)
SPOT_CHECKS = 32
READS = {"process_independence": 40, "multiway_independence": 20, "event_prob": 40, "sample_many": 4}
DRAWS = 500
# Allowed distance of each element's inclusion frequency in a sample_many
# call from K_ii, in binomial standard errors.
SAMPLE_SIGMAS = 5.0


def pair_read(rng, k, everyone):
    a, b, gin, gout = inputs.partition(rng, everyone, [2, 2, 1, 1])
    return ("process_independence", lambda t: process_independence(t, a, b, Event(gin, gout)),
            (a, b, gin, gout), checks.verdict_ref(k, [a, b], gin, gout))


def parts_read(rng, k, everyone):
    *parts, gout = inputs.partition(rng, everyone, [1, 2, 1, 1])
    return ("multiway_independence", lambda t: multiway_independence(t, parts, Event([], gout)),
            (parts, gout), checks.verdict_ref(k, parts, (), gout))


def event_read(rng, k, everyone):
    inc, exc = inputs.partition(rng, everyone, [2, 2])
    return ("event_prob", lambda t: event_prob(t, Event(inc, exc)),
            (inc, exc), math.exp(checks.log_mixed(k, inc, exc)))


def sample_read(rng, k, everyone):
    seed = int(rng.integers(1 << 31))
    return ("sample_many", lambda t: sample_many(t, DRAWS, seed), (DRAWS, seed), np.diag(k).copy())


def sample_ok(draws, n, inclusion) -> bool:
    """DRAWS subsets of 1..n whose element frequencies match the inclusion probabilities K_ii."""
    if len(draws) != DRAWS or any(len(s) and not 1 <= min(s) <= max(s) <= n for s in draws):
        return False
    hits = np.zeros(n)
    for s in draws:
        hits[[v - 1 for v in s]] += 1
    sigma = np.sqrt(inclusion * (1.0 - inclusion) / DRAWS)
    return bool(np.all(np.abs(hits / DRAWS - inclusion) <= SAMPLE_SIGMAS * sigma))


class TableEnum:
    name = "table-enum"
    throughput_name = "table_subsets_per_s"
    # A read scans the whole table, so its time is reported per table entry:
    # reads of the n = 16 and n = 18 tables then share one scale.
    latency_name = "read_per_entry"
    latency_unit = ("ns", 1e9)
    work_key = "subsets"
    time_key = "build_s"
    round_units = 4

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.sizes = (8, 10) if smoke else SIZES
        self.pool = []
        self.table = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.pool = [self._table_spec(rng, n) for n in self.sizes]

    def warm_up(self) -> None:
        """Build and read one n = 10 table, away from the measured pool."""
        small = TableEnum(self.seed, smoke=True)
        small.pool = [small._table_spec(np.random.default_rng([self.seed, 5]), 10)]
        throwaway = Run(self.seed, traced=False)
        small.unit(0, throwaway)
        small.unit(1, throwaway)

    def _table_spec(self, rng, n):
        k = inputs.dense_marginal(rng, n)
        w, v = np.linalg.eigh(k)
        l = (v * (w / (1.0 - w))) @ v.T
        log_norm = -float(np.sum(np.log1p(-w)))
        masks = rng.integers(0, 1 << n, size=SPOT_CHECKS).tolist()
        spot = [(m, math.exp(checks.log_exact(l, log_norm, checks.mask_members(m, n)))) for m in masks]
        everyone = range(1, n + 1)
        # Each read type has one fixed shape, so only which elements are read
        # depends on the seed, and each type's cost forms one tight cluster:
        # event_prob reads are 38% of the reads and the cheapest, so p50 falls
        # among the process_independence reads and p90 among the multiway ones.
        draw = {"process_independence": pair_read, "multiway_independence": parts_read,
                "event_prob": event_read, "sample_many": sample_read}
        reads = [draw[op](rng, k, everyone) for op, count in READS.items() for _ in range(count)]
        order = rng.permutation(len(reads))
        return {"n": n, "matrix": k, "spot": spot, "reads": [reads[j] for j in order]}

    def unit(self, i: int, run) -> None:
        """Even units build a model and its table and check it; odd units read that table.

        Keeping the reads apart puts a calibration pass right after each build.
        """
        spec = self.pool[(i // 2) % len(self.pool)]
        n = spec["n"]
        if i % 2:
            sid = run.open("table-enum.reads")
            for read in spec["reads"] if self.table is not None else ():
                self._read(run, self.table, n, read, sid)
            run.close(sid)
            return
        self.table = None
        matrix = spec["matrix"].copy()
        sid = run.open("table-enum.build")
        ok, model = run.call("probability.model_build", "from_marginal", n, build_model, "K", matrix, parent=sid)
        if ok:
            t0 = run.clock()
            ok, table = run.call("oracle.build_table", "build_table", n, build_table, model, parent=sid)
            run.counters["build_s"] += run.clock() - t0
        run.close(sid)
        if ok:
            run.counters["subsets"] += 1 << n
            self._check_table(run, spec, table, n)
            self.table = table

    @staticmethod
    def _check_table(run, spec, table, n) -> None:
        run.check(checks.table_sums_to_one(table.probs), "oracle.build_table", "build_table", n,
                  lambda: f"table sums to {math.fsum(table.probs)!r}")
        bad = [(m, float(table.probs[m]), ref) for m, ref in spec["spot"]
               if not abs(float(table.probs[m]) - ref) <= checks.REL_TOL * ref + checks.SUBNORMAL_SPACING]
        run.check(not bad, "oracle.build_table", "build_table", n,
                  lambda: f"{len(bad)} of {len(spec['spot'])} sampled subsets differ from a direct det, "
                          f"first mask {bad[0][0]}: {bad[0][1]!r} vs {bad[0][2]!r}")

    @staticmethod
    def _read(run, table, n, read, tsid) -> None:
        op, ask, args, ref = read
        group = "oracle.sample" if op == "sample_many" else "oracle.replay"
        t0 = run.clock()
        ok, out = run.call(group, op, n, ask, table, parent=tsid)
        dt = run.clock() - t0
        run.latencies_s.append(dt / (1 << n))
        run.counters["read_s"] += dt
        run.counters["reads"] += 1
        if not ok:
            return
        if op == "event_prob":
            good = abs(out - ref) <= checks.TABLE_TOL
        elif op == "sample_many":
            good = sample_ok(out, n, ref)
        else:
            good = out.independent == ref
        run.check(good, group, op, n, lambda: f"args {args}: got {str(out)[:200]}, reference {ref!r}")

    @staticmethod
    def extra_metrics(run) -> dict:
        return {"table_reads_per_s": (run.counters["reads"] / run.counters["read_s"], "1/s")}
