"""The benchmark's own tests: reduced-size runs, and planted wrong answers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from dppci import build_table  # noqa: E402
from perfbench import checks, cli_cold, kernel_large, table_enum  # noqa: E402
from perfbench.harness import Run, build_model  # noqa: E402
from perfbench.kernel_large import KernelLarge  # noqa: E402
from perfbench.run import WORKLOADS  # noqa: E402
from perfbench.table_enum import TableEnum  # noqa: E402
from perfbench.verify_small import VerifySmall  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end figures each workload's report names, besides the JSON ones.
NAMED = {
    "verify-small": ["confirmations_per_s 1/s"],
    "kernel-large": ["models_per_s 1/s"],
    "table-enum": ["table_subsets_per_s 1/s", "table_reads_per_s 1/s", "read_per_entry_p50_ns ns"],
    "cli-cold": ["cli_p50_ms ms", "cli_p90_ms ms"],
}


def run_bench(workload, trace, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    lines = [line.split() for line in proc.stdout.splitlines()]
    for named in NAMED[workload] + ["setup_s s", "peak_rss_mb MB"]:
        name, unit = named.split()
        assert any(tokens[:1] == [name] and unit in tokens for tokens in lines), named
    assert any(tokens[:1] == ["error_rate"] for tokens in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc = run_bench(workload, 1)
    result = result_of(proc)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert "tracing overhead" in proc.stdout


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("verify-small", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def flipped(fn):
    """Wrap a verdict function so it answers the opposite."""
    @functools.wraps(fn)
    def wrong(*args, **kwargs):
        verdict = fn(*args, **kwargs)
        if hasattr(verdict, "_replace"):  # the oracle's verdicts are named tuples
            return verdict._replace(independent=not verdict.independent)
        if hasattr(verdict, "independent"):
            return dataclasses.replace(verdict, independent=not verdict.independent)
        return type(verdict)("not-certified" if verdict.is_certified else "certified-independent")
    return wrong


def test_flipped_zero_block_verdict_is_a_failure():
    bench = VerifySmall(5, smoke=True)
    bench.setup()
    spec = bench.pool[0]
    q = next(q for q in spec["queries"] if q.group == "independence.ci")
    honest, planted = Run(5, False), Run(5, False)
    spec["queries"] = [q]
    bench.unit(0, honest)
    spec["queries"] = [q._replace(ask=flipped(q.ask))]
    bench.unit(0, planted)
    assert honest.failed == 0
    assert planted.failed >= 1
    assert planted.failures[0].group == "independence.ci"


def planted_certificate(field):
    """A run of one sparse model's first certificate query, with `field` flipped."""
    bench = VerifySmall(5, smoke=True)
    bench.setup()
    spec = next(s for s in bench.pool if s["family"] == "chain" and s["n"] == 5)
    q = spec["queries"][0]
    spec["queries"] = [q._replace(**{field: flipped(getattr(q, field))})]
    run = Run(5, False)
    bench.unit(bench.pool.index(spec), run)
    return run


def test_refused_certificate_is_a_failure():
    # Every certificate asked is for a separated triple, which must certify.
    run = planted_certificate("ask")
    assert run.failed == 1
    assert run.failures[0].group == "graphs.certify"
    assert "not certified" in run.failures[0].detail


def test_oracle_dependence_under_a_certificate_is_a_failure():
    run = planted_certificate("replay")
    assert run.failed == 1
    assert "oracle independent=False" in run.failures[0].detail


def test_perturbed_probability_is_a_failure(monkeypatch):
    bench = KernelLarge(7, smoke=True)
    bench.setup()
    honest = Run(7, False)
    bench.unit(0, honest)
    assert honest.failed == 0
    real = kernel_large.inclusion_prob

    @functools.wraps(real)
    def perturbed(*args):
        return real(*args) * (1 + 1e-6)

    monkeypatch.setattr(kernel_large, "inclusion_prob", perturbed)
    planted = Run(7, False)
    bench.unit(0, planted)
    assert {f.op for f in planted.failures} == {"inclusion_prob"}
    assert planted.failed == len(bench.pool[0]["inclusion"])


def test_known_defect_probe_answers_each_overflow_set(monkeypatch):
    bench = KernelLarge(7, smoke=True)
    spec = bench._model_spec(np.random.default_rng(7), 400, "L")
    assert spec["exact_overflow"]  # det(L + I) overflows at n = 400
    assert all(checks.probability_ok(0.0, ref) for _, ref in spec["exact"])
    bench.pool = [spec]

    def log_domain(model, a):
        l, i = model.ensemble.array, checks.idx0(a)
        return float(np.exp(checks.logdet(l[np.ix_(i, i)]) - checks.logdet(l + np.eye(len(l)))))

    monkeypatch.setattr(kernel_large, "exact_prob", lambda model, a: float("nan"))
    assert [fixed for fixed, *_ in bench.known_defects()] == [False] * len(spec["exact_overflow"])
    monkeypatch.setattr(kernel_large, "exact_prob", log_domain)
    assert [fixed for fixed, *_ in bench.known_defects()] == [True] * len(spec["exact_overflow"])


def test_probability_check_edges():
    assert checks.probability_ok(np.exp(-3.0), -3.0)
    assert not checks.probability_ok(np.exp(-3.0) * (1 + 1e-6), -3.0)
    assert not checks.probability_ok(float("nan"), -3.0)
    assert not checks.probability_ok(0.0, -500.0)      # a silent zero
    assert checks.probability_ok(0.0, -800.0)          # the true value underflows


def test_perturbed_table_is_a_failure():
    bench = TableEnum(2, smoke=True)
    bench.setup()
    spec = bench.pool[0]
    table = build_table(build_model("K", spec["matrix"]))
    run = Run(2, False)
    TableEnum._check_table(run, spec, table, spec["n"])
    assert run.failed == 0
    table.probs[spec["spot"][0][0]] *= 1.001
    TableEnum._check_table(run, spec, table, spec["n"])
    assert run.failed == 2  # the sum and the spot check


def test_cli_field_mismatch_is_detected():
    doc = {"independent": False, "oracle": {"residual": 0.25}}
    assert cli_cold._matches(cli_cold._lookup(doc, "oracle.residual"), 0.25)
    assert not cli_cold._matches(cli_cold._lookup(doc, "oracle.residual"), 0.2500001)
    assert not cli_cold._matches(cli_cold._lookup(doc, "independent"), True)
    assert not cli_cold._matches(cli_cold._lookup(doc, "oracle.independent"), False)


def off_by_one_sample_many(table, count, seed=None):
    """sample_many with the CDF lookup shifted by one subset."""
    rng = np.random.default_rng(seed)
    picks = np.searchsorted(np.cumsum(table.probs), rng.random(count), side="right") + 1
    return [[i + 1 for i in range(table.n) if int(m) >> i & 1] for m in np.minimum(picks, len(table.probs) - 1)]


@pytest.mark.parametrize("planted", [None, off_by_one_sample_many])
def test_wrong_sampler_is_a_failure(planted, monkeypatch):
    bench = TableEnum(4, smoke=True)
    bench.setup()
    if planted is not None:
        monkeypatch.setattr(table_enum, "sample_many", planted)
    run = Run(4, False)
    bench.unit(0, run)
    bench.unit(1, run)
    sampled = [f for f in run.failures if f.op == "sample_many"]
    assert len(sampled) == (0 if planted is None else table_enum.READS["sample_many"])
    assert len(run.failures) == len(sampled)
