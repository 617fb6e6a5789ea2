"""cli-cold: fresh `dppci` processes, one at a time.

Each round runs five cold calls: `ci --oracle` on the 3-element demo kernel,
`ci --oracle` and `prob --exact --oracle` on an n = 12 L file, `validate` on
an n = 200 text K file and `graph --separates` on an n = 200 banded L file.
Every call's exit code and stdout JSON are compared with the same query
answered in-process through the library API.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from dppci import (
    CiQuery,
    DppModel,
    Event,
    build_table,
    check_conditional_independence,
    exact_prob,
    induced_graph,
    process_independence,
    separates,
)

from . import inputs

DEMO_K = [[0.05, 0.0, 0.1], [0.0, 0.8, 0.2], [0.1, 0.2, 0.6]]
CALL_TIMEOUT_S = 60
FLOAT_TOL = 1e-12


def _write(path, matrix, sep):
    with open(path, "w") as fh:
        for row in matrix:
            fh.write(sep.join(format(float(x), ".17g") for x in row) + "\n")


def _parse(stdout: str) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return {}
    return doc if isinstance(doc, dict) else {}


def _lookup(doc, dotted: str):
    for part in dotted.split("."):
        if not isinstance(doc, dict) or part not in doc:
            return None
        doc = doc[part]
    return doc


def _matches(value, want) -> bool:
    """Exact for flags, counts and lists; within FLOAT_TOL for floats."""
    if not isinstance(want, float):
        return value == want
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value - want) <= FLOAT_TOL * max(1.0, abs(want)))


def _index_list(values) -> str:
    return ",".join(str(v) for v in values)


class CliCold:
    name = "cli-cold"
    throughput_name = "cli_calls_per_s"
    latency_name = "cli"
    work_key = "calls"
    time_key = None
    round_units = 5
    # The work runs in the dppci processes, so peak_rss_mb is theirs, not
    # that of the benchmark process that starts them.
    rss_of_children = True

    def __init__(self, seed: int, smoke: bool, workdir: str, src_dir: str):
        self.seed = seed
        self.big = 24 if smoke else 200
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src_dir, os.environ.get("PYTHONPATH")) if p))
        self.calls = []

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 4])
        os.makedirs(self.workdir, exist_ok=True)
        calls = []

        def path(name):
            return os.path.join(self.workdir, name)

        _write(path("demo.csv"), DEMO_K, ",")
        demo = DppModel.from_marginal(DEMO_K)
        calls.append(self._ci_call(path("demo.csv"), "K", demo, [1, 2], [3], [], []))

        # n = 12 random-tree L: the query excludes one vertex of degree >= 2
        # and asks about vertices on two sides of it.
        n = 12
        edges = inputs.random_tree_edges(rng, n)
        l12 = inputs.ensemble_from_edges(rng, n, edges)
        _write(path("l12.csv"), l12, ",")
        m12 = DppModel.from_ensemble(l12)
        adj = inputs.adjacency(n, edges)
        cut = max(adj, key=lambda v: len(adj[v]))
        comps = inputs.components_without(adj, [cut])
        calls.append(self._ci_call(path("l12.csv"), "L", m12, comps[0][:2], comps[1][:2], [], [cut]))
        subset = inputs.partition(rng, range(1, n + 1), [5])[0]
        table = build_table(m12)
        calls.append(("prob", ["prob", "--matrix", path("l12.csv"), "--kind", "L", "--include",
                               _index_list(subset), "--exact", "--oracle"],
                      {"probability": exact_prob(m12, subset), "oracle.probability": table.prob_of(subset)}))

        big = self.big
        k_big = inputs.dense_marginal(rng, big)
        _write(path("k_big.txt"), k_big, " ")
        w = np.linalg.eigvalsh(k_big)
        calls.append(("validate", ["validate", "--matrix", path("k_big.txt"), "--kind", "K"],
                      {"valid": True, "n": big, "eigenvalue_min": float(w[0]), "eigenvalue_max": float(w[-1])}))

        l_big, _, _ = inputs.banded_ensemble(rng, big, 3, 20.0)
        _write(path("l_big.csv"), l_big, ",")
        graph = induced_graph(DppModel.from_ensemble(l_big).ensemble.matrix)
        lo = big // 2
        a, b, c = [1, 2], [big - 1, big], list(range(lo, lo + 3))
        calls.append(("graph", ["graph", "--matrix", path("l_big.csv"), "--kind", "L", "--separates",
                                _index_list(a), _index_list(b), _index_list(c)],
                      {"edges": [list(e) for e in graph.sorted_edges()],
                       "separation.separates": separates(graph, a, b, c)}))
        self.calls = calls

    def warm_up(self) -> None:
        """One cold call, so byte-compiled files and the page cache exist."""
        self._run(self.calls[0][1])

    @staticmethod
    def _ci_call(file, kind, model, a, b, gin, gout):
        verdict = check_conditional_independence(model, CiQuery(a, b, given_in=gin, given_out=gout))
        oracle = process_independence(build_table(model), a, b, Event(gin, gout))
        argv = ["ci", "--matrix", file, "--kind", kind, "--a", _index_list(a), "--b", _index_list(b),
                "--given-in", _index_list(gin), "--given-out", _index_list(gout), "--oracle"]
        expected = {"independent": verdict.independent, "criterion_value": verdict.criterion_value,
                    "oracle.independent": oracle.independent, "oracle.residual": oracle.residual}
        return ("ci", argv, expected)

    def _run(self, argv):
        """One cold call; None when it does not finish within CALL_TIMEOUT_S."""
        try:
            return subprocess.run([sys.executable, "-m", "dppci.cli", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None

    def unit(self, i: int, run) -> None:
        op, argv, expected = self.calls[i % len(self.calls)]
        t0 = run.clock()
        _, proc = run.call("cli.call", op, 0, self._run, argv)
        run.latencies_s.append(run.clock() - t0)
        run.counters["calls"] += 1
        if proc is None:
            run.fail("cli.call", op, 0, f"timed out after {CALL_TIMEOUT_S} s")
            return
        got = _parse(proc.stdout)
        bad = [key for key, want in expected.items() if not _matches(_lookup(got, key), want)]
        run.check(proc.returncode == 0 and not bad, "cli.call", op, got.get("n", 0),
                  lambda: f"exit {proc.returncode}, fields differing from in-process: {bad}; "
                          f"stderr {proc.stderr.strip()[-200:]!r}")
