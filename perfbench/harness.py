"""Timing loop, calibration, span tracing, failure ledger and statistics.

Every public dppci call a workload makes goes through :meth:`Run.call`, which
times it, records a span when tracing is on, and books a raised ``DppError``
as a failed operation. Output checks go through :meth:`Run.check`. Spans stay
in memory until the run ends. :func:`measure` runs the closed loop while a
:class:`Calibrator` samples the host's speed.
"""

from __future__ import annotations

import bisect
import math
from array import array
import signal
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from dppci import DppError, DppModel

# Layer metric groups, named after the modules in src/dppci/. The order is
# the order of the traced report.
LAYER_GROUPS = (
    "kernels.validate",
    "kernels.convert",
    "kernels.schur",
    "probability.model_build",
    "probability.event_prob",
    "probability.conditional_kernel",
    "independence.ci",
    "independence.pairwise",
    "graphs.induced_graph",
    "graphs.certify",
    "graphs.zero_block_report",
    "oracle.build_table",
    "oracle.replay",
    "oracle.sample",
    "cli.call",
)

# Groups whose median call is reported in milliseconds rather than microseconds.
MS_GROUPS = ("oracle.build_table", "cli.call")


def p50_name(group: str) -> tuple[str, str]:
    unit = "ms" if group in MS_GROUPS else "us"
    return f"{group}.p50_{unit}", unit


def nearest_rank(sorted_values, q: float) -> float:
    """The q-th percentile (0 < q <= 100) of an ascending list, by nearest rank."""
    k = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def highest_percentile(count: int) -> float:
    """The highest of a few standard percentiles with at least ten samples beyond it."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return 50.0


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    qid: int | None
    start: float
    end: float = 0.0
    failed: bool = False


@dataclass
class Failure:
    group: str
    op: str
    n: int
    detail: str


@dataclass
class Run:
    """State of one measured phase: counters, latency samples, spans, failures."""

    seed: int
    traced: bool
    attempted: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    latencies_s: array = field(default_factory=lambda: array("d"))
    counters: Counter = field(default_factory=Counter)
    clock: object = time.perf_counter  # replaced by the work clock while measuring
    _next_id: int = 0

    # -- spans ---------------------------------------------------------------
    def open(self, name: str, qid: int | None = None, parent: int | None = None) -> int | None:
        """Open an operation span (a model, a query, a table) and return its id."""
        if not self.traced:
            return None
        self._next_id += 1
        self.spans.append(Span(self._next_id, parent, name, qid, self.clock()))
        return self._next_id

    def close(self, sid: int | None) -> None:
        if sid is not None:
            # Spans are appended in id order, so id k sits at index k - 1.
            self.spans[sid - 1].end = self.clock()

    def new_qid(self) -> int:
        self.counters["qid"] += 1
        return self.counters["qid"]

    # -- calls and checks ----------------------------------------------------
    def call(self, group: str, op: str, n: int, fn, *args, parent=None, qid=None, **kwargs):
        """Call one public dppci function; returns (ok, result).

        A DppError counts as a failed operation and yields (False, None).
        """
        self.attempted += 1
        span = None
        if self.traced:
            self._next_id += 1
            span = Span(self._next_id, parent, group, qid, self.clock())
            self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except DppError as exc:
            if span is not None:
                span.end = self.clock()
                span.failed = True
            self.fail(group, op, n, f"raised {type(exc).__name__}: {exc}")
            return False, None
        if span is not None:
            span.end = self.clock()
        return True, result

    def check(self, ok: bool, group: str, op: str, n: int, detail) -> bool:
        """Book a failed output check. detail may be a callable, built only on failure."""
        if not ok:
            self.fail(group, op, n, detail() if callable(detail) else detail)
        return ok

    def fail(self, group: str, op: str, n: int, detail: str) -> None:
        self.failures.append(Failure(group, op, n, detail))

    @property
    def failed(self) -> int:
        return len(self.failures)


def build_model(kind: str, matrix):
    """The probability.model_build operation: DppModel.from_* and the first read of the ensemble."""
    model = DppModel.from_marginal(matrix) if kind == "K" else DppModel.from_ensemble(matrix)
    model.ensemble
    return model


# A fixed mix of interpreter work and small LAPACK calls, none of it dppci.
# The host's speed drifts by tens of percent within seconds; times divided
# by this loop's time, sampled while they were taken, drift far less.
_CAL_MATRIX = np.eye(8) * 8.0 + np.fromfunction(lambda i, j: 1.0 / (1.0 + i + j), (8, 8))
CAL_EVERY_S = 0.1
CAL_MIN_SAMPLES = 5


def calibrate() -> float:
    """Time one pass of the calibration loop (about half a millisecond), in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += i * i
    for _ in range(60):
        np.linalg.det(_CAL_MATRIX)
    return time.perf_counter() - t0


class Calibrator:
    """Runs the calibration loop every CAL_EVERY_S from a SIGALRM interval timer.

    The handler runs between bytecodes of whatever the main thread is doing,
    so samples land inside long library calls and while a child process
    runs. :meth:`clock` is a work clock that stops while the handler runs,
    so the calibration's own time is never counted as the workload's.
    """

    def __init__(self):
        self.starts = []   # perf_counter() at the start of each sample
        self.loops = []    # the loop time of each sample
        self.paused = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        loop = calibrate()
        self.starts.append(t0)
        self.loops.append(loop)
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def during(self, t0: float, t1: float) -> float:
        """Median loop time of the samples taken between perf_counter times t0 and t1,
        reaching back to earlier samples until there are CAL_MIN_SAMPLES."""
        hi = bisect.bisect_right(self.starts, t1)
        lo = min(bisect.bisect_left(self.starts, t0), max(0, hi - CAL_MIN_SAMPLES))
        if lo == hi:
            return calibrate()
        return statistics.median(self.loops[lo:hi])


@dataclass
class Unit:
    """One unit run: which input it used, the work it did and the time it took."""

    entry: int
    wall_s: float
    work: float
    work_s: float
    lat_from: int  # its latency samples are run.latencies_s[lat_from:lat_to]
    lat_to: int
    cal_s: float   # median calibration loop time while the unit ran


def measure(workload, seconds: float, run: Run) -> list:
    """Closed loop: run whole rounds one after another until the next would overrun.

    A round is ``workload.round_units`` consecutive units, one pass over the
    workload's inputs. At least one round always runs, so a short run still
    exercises every step. A unit's work is the growth of
    ``run.counters[workload.work_key]``; its time is its duration on the
    work clock, or the growth of ``workload.time_key`` if set. Each unit is
    paired with the calibration samples taken while it ran.
    """
    units = []
    start = time.perf_counter()
    i = 0
    with Calibrator() as cal:
        run.clock = cal.clock
        try:
            while True:
                for _ in range(workload.round_units):
                    work0 = run.counters[workload.work_key]
                    busy0 = run.counters[workload.time_key] if workload.time_key else 0.0
                    lat0 = len(run.latencies_s)
                    p0, t0 = time.perf_counter(), cal.clock()
                    workload.unit(i, run)
                    unit_s, p1 = cal.clock() - t0, time.perf_counter()
                    work_s = run.counters[workload.time_key] - busy0 if workload.time_key else unit_s
                    units.append(Unit(i % workload.round_units, unit_s,
                                      run.counters[workload.work_key] - work0, work_s,
                                      lat0, len(run.latencies_s), cal.during(p0, p1)))
                    i += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed * workload.round_units / i > seconds:
                    return units
        finally:
            run.clock = time.perf_counter


def replay(workload, units: int, run: Run) -> float:
    """Run the first `units` units again, under the same calibration timer, and
    return their time on the work clock."""
    with Calibrator() as cal:
        start = cal.clock()
        for unit in range(units):
            workload.unit(unit, run)
        return cal.clock() - start


def latency_summary(samples_s) -> dict:
    """The highest percentile with ten samples beyond it, over a whole run, in seconds."""
    ordered = sorted(samples_s)
    q = highest_percentile(len(ordered))
    return {"count": len(ordered), "tail_q": q, "tail_s": nearest_rank(ordered, q)}


def figures(units, latencies_s) -> dict:
    """End-to-end figures, in seconds and in calibration units.

    Throughput: for each input, the median over its repetitions of the time
    it took; the work of one round divided by the sum of those medians.
    Latency: p50 and p90 over every sample of the run. In calibration units
    every time is first divided by the calibration time around its unit.
    """
    by_entry = {}
    for u in units:
        by_entry.setdefault(u.entry, []).append(u)
    work = sum(statistics.median(u.work for u in us) for us in by_entry.values())
    secs = sum(statistics.median(u.work_s for u in us) for us in by_entry.values())
    cals = sum(statistics.median(u.work_s / u.cal_s for u in us) for us in by_entry.values())
    lat = np.frombuffer(latencies_s, dtype=float)
    cal = np.repeat([u.cal_s for u in units], [u.lat_to - u.lat_from for u in units])
    lat_s, lat_cal = np.sort(lat), np.sort(lat / cal)
    return {
        "throughput_per_s": work / secs,
        "throughput_per_cal": work / cals,
        "latency_p50_s": float(nearest_rank(lat_s, 50)),
        "latency_p90_s": float(nearest_rank(lat_s, 90)),
        "latency_p50_cal": float(nearest_rank(lat_cal, 50)),
        "latency_p90_cal": float(nearest_rank(lat_cal, 90)),
        "calibration_ms": statistics.median(u.cal_s for u in units) * 1e3,
    }


def set_up(workload, repeats: int) -> tuple[float, float]:
    """Generate inputs and warm up `repeats` times under the calibration timer.

    Returns the median set-up time in seconds and in calibration units.
    """
    secs, cals = [], []
    with Calibrator() as cal:
        for _ in range(repeats):
            p0, t0 = time.perf_counter(), cal.clock()
            workload.setup()
            workload.warm_up()
            dt = cal.clock() - t0
            secs.append(dt)
            cals.append(dt / cal.during(p0, time.perf_counter()))
    return statistics.median(secs), statistics.median(cals)


def calibration_now() -> float:
    """Median of a few calibration passes run right away."""
    return statistics.median(calibrate() for _ in range(CAL_MIN_SAMPLES))


def layer_metrics(run: Run, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics derived from the spans of a traced run.

    ``busy_s`` sums a group's span durations. Spans opened by the workload
    itself (models, queries, tables) are not layers; their self time, the
    part of each not covered by child spans, is the harness's own time.
    """
    by_group = {g: [] for g in LAYER_GROUPS}
    child_time = Counter()
    for span in run.spans:
        if span.name in by_group:
            by_group[span.name].append(span.end - span.start)
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    failed = Counter(f.group for f in run.failures)
    out = {}
    for group, durations in by_group.items():
        durations.sort()
        name, unit = p50_name(group)
        scale = 1e3 if unit == "ms" else 1e6
        out[f"{group}.calls"] = (len(durations), "count")
        out[f"{group}.busy_s"] = (math.fsum(durations), "s")
        out[name] = (nearest_rank(durations, 50) * scale if durations else 0.0, unit)
        out[f"{group}.failed"] = (failed[group], "count")
    harness_self = math.fsum(
        (s.end - s.start) - child_time[s.sid] for s in run.spans if s.name not in by_group
    )
    c = run.counters
    out["graphs.certify.certified_ratio"] = (_ratio(c["certified"], c["certify_calls"]), "ratio")
    out["oracle.build_table.subsets"] = (c["subsets"], "count")
    out["oracle.replay.agreement_ratio"] = (_ratio(c["agree"], c["replays"]), "ratio")
    out["harness.self_s"] = (harness_self, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def span_records(run: Run) -> list:
    return [
        {"id": s.sid, "parent": s.parent, "name": s.name, "qid": s.qid,
         "start": s.start, "end": s.end, "failed": s.failed}
        for s in run.spans
    ]


def failure_lines(run: Run, seed: int) -> list:
    """One line per distinct failure, with how often it occurred."""
    counts = Counter((f.group, f.op, f.n, f.detail) for f in run.failures)
    return [
        f"FAILED x{count} {group} {op} n={n} seed={seed}: {detail}"
        for (group, op, n, detail), count in sorted(counts.items(), key=lambda kv: (kv[0][2], kv[0][1]))
    ]
